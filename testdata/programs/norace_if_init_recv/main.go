// A receive in an if statement's init clause: the goroutine's write of
// data happens before its send, and the send before the receive that
// the init performs, so the read in the body is ordered after the write.
package main

import "fmt"

var (
	data int
	ch   = make(chan int)
)

func main() {
	go func() {
		data = 1
		ch <- 1
	}()
	if v := <-ch; v == 1 {
		fmt.Println(data)
	}
}
