// Command synccalls reaches an atomic counter, a channel and a mutex
// through indices a call returns. Each call must run once, instrumented
// or not: a sync hook that copied its operand would run it again.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

var (
	calls int
	cs    = make([]int64, 2)
	chs   = []chan int{make(chan int, 1)}
	mus   = make([]sync.Mutex, 2)
)

func next() int { calls++; return 0 }

func main() {
	atomic.AddInt64(&cs[next()], 1)
	chs[next()] <- 1
	mus[next()].Lock()
	fmt.Println("calls", calls)
}
