// A time.AfterFunc closure and the function that scheduled it both write
// x with nothing ordering the two writes: the closure runs on a goroutine
// the runtime's timer starts, concurrently with the rest of main. The
// channel only orders both writes before main returns. The closure must
// resolve its own goroutine identity; one that reused its enclosing
// frame's would make both writes look like one goroutine's and hide the
// race.
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
	x = 2 // races with the closure's write
	<-done
	fmt.Println("done")
}
