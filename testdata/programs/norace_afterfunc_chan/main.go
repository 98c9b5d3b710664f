// The race_afterfunc_closure pair ordered by a channel: the
// time.AfterFunc closure writes x and then sends, and main writes x only
// after the receive, so the send→receive edge orders the two writes.
package main

import (
	"fmt"
	"time"
)

var (
	x int
	// done is initialized before main, outside any hooked code: the
	// closure's goroutine is started by the runtime's timer, with no
	// fork edge from main, so a channel main created would look racy.
	done = make(chan struct{})
)

func main() {
	time.AfterFunc(time.Millisecond, func() {
		x = 1
		done <- struct{}{}
	})
	<-done
	x = 2
	fmt.Println(x)
}
