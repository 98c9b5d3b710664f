// Command shapes accesses shared memory through address expressions that
// hold calls and receives, in every statement form the rewriter hooks,
// and prints the order the calls ran in and the memory they left. An
// instrumented build must print exactly what the plain build prints.
package main

import "fmt"

type T struct {
	N   int
	Arr [4]int
}

var (
	trace []string
	xs    = make([]int, 8)
	ys    = make([]int, 8)
	arr   [8]int
	m     = map[string][]int{"k": make([]int, 4)}
	ts    = []*T{{}, {}}
	ch    = make(chan int, 6)
)

// at, ptr and key log their calls and return what the address needs.
func at(name string, i int) int { trace = append(trace, name); return i }

func ptr(name string, i int) *T { trace = append(trace, name); return ts[i] }

func key(name string) string { trace = append(trace, name); return "k" }

func main() {
	xs[at("index", 1)] = 5
	v := xs[at("index-read", 1)]
	ptr("selector", 0).N = v
	ptr("selector-op", 1).N += 2
	m[key("map")][at("map-index", 2)] = 7
	m[key("map-read")] = append(m[key("map-arg")], 1)
	xs[at("lhs", 2)] += at("rhs", 3)
	xs[at("a", 3)], ys[at("b", 4)] = 1, 2
	xs[at("inc", 5)]++
	arr[at("array", 1)] = 3
	ptr("field-array", 0).Arr[at("field-array-index", 2)] = 4
	// More values than the receives take, so a repeated receive shows
	// in the output instead of blocking.
	for _, v := range []int{6, 7, 1, 2, 3, 4} {
		ch <- v
	}
	xs[<-ch] = 9
	ys[<-ch]--
	var i int
	for i, ys[at("range", 0)] = range []int{10, 11} {
	}
	_ = i
	fmt.Println(trace)
	fmt.Println(xs, ys, arr, m, *ts[0], *ts[1], xs[at("print", 1)], len(ch))
}
