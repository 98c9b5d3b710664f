// Command calls writes a field through a pointer a call returns. The
// call must run once, instrumented or not.
package main

import "fmt"

type T struct{ Cap int }

var calls int

func op() *T { calls++; return &T{} }

func main() {
	op().Cap = 1
	fmt.Println("calls", calls)
}
