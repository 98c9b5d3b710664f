// A channel send and an atomic store whose values come from calls that
// write the payload: the calls run before the send and the store, so the
// payload reads after the receive and the load are ordered.
package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

var (
	x, y  int
	ch    = make(chan int)
	ready int32
)

func compute() int { x = 1; return 1 }

func publish() int32 { y = 2; return 1 }

func main() {
	go func() { ch <- compute() }()
	<-ch
	go func() { atomic.StoreInt32(&ready, publish()) }()
	for {
		r := atomic.LoadInt32(&ready)
		if r == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println(x, y)
}
