//go:build !amd64

package rt

// goid returns the current goroutine's runtime id. Off amd64 there is no
// getg stub, so every resolution parses runtime.Stack.
func goid() int64 { return parseGoid() }
