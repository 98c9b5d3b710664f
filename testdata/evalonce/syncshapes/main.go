// Command syncshapes reaches channels, locks and atomics through operands
// that hold calls, in every statement form the rewriter hooks as a
// synchronization operation (an if's or a switch's init clause among them), and prints the order the calls ran in and
// what the operations left. An instrumented build must print exactly what
// the plain build prints, and build: a sent value whose type comes from
// the channel must keep it.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

type flag bool

var (
	trace []string
	chs   = []chan int{make(chan int, 2), make(chan int, 2)}
	c8    = make(chan int8, 1)
	cf    = make(chan flag, 1)
	mus   = make([]sync.Mutex, 2)
	cs    = make([]int64, 2)
	ns    = make([]atomic.Int64, 2)
)

// at logs its call and returns i.
func at(name string, i int) int { trace = append(trace, name); return i }

func main() {
	chs[at("send", 0)] <- at("send-value", 1)
	<-chs[at("recv", 0)]
	chs[0] <- 2
	v, ok := <-chs[at("recv-assign", 0)]

	// The send case cannot proceed (its channel is full), so the select
	// deterministically receives; every operand is evaluated on entry.
	chs[0] <- 3
	chs[0] <- 4
	chs[1] <- 5
	var w int
	select {
	case chs[at("select-send", 0)] <- at("select-value", 6):
		w = -1
	case w = <-chs[at("select-recv", 1)]:
	}

	chs[1] <- 7
	close(chs[at("close", 1)])
	sum := 0
	for x := range chs[at("range", 1)] {
		sum += x
	}
	if x := <-chs[at("if-init", 0)]; x > 0 {
		sum += x
	}
	switch x := <-chs[at("type-switch-init", 0)]; v := any(x).(type) {
	case int:
		sum += v
	}

	c8 <- 1 << at("shift", 3)
	cf <- at("compare", 1) > 0

	mus[at("lock", 0)].Lock()
	mus[at("unlock", 0)].Unlock()

	atomic.AddInt64(&cs[at("add", 0)], 1)
	atomic.StoreInt64(&cs[at("store", 1)], int64(at("store-value", 8)))
	loaded := atomic.LoadInt64(&cs[at("load", 1)])
	ns[at("method-add", 0)].Add(int64(at("method-add-value", 9)))
	swapped := ns[at("method-cas", 0)].CompareAndSwap(int64(at("old", 9)), int64(at("new", 10)))
	switch y := atomic.LoadInt64(&cs[at("switch-init", 0)]); {
	case y > 0:
		sum += int(y)
	}

	fmt.Println(trace)
	fmt.Println(v, ok, w, sum, <-c8, <-cf, cs, loaded, ns[0].Load(), swapped)
}
