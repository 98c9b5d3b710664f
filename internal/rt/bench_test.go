package rt

import (
	"sync"
	"testing"
	"unsafe"
)

// BenchmarkLockUnlockHook times one LockAcquire/LockRelease hook pair on
// a sync.Mutex from a single goroutine, at rate 1 (see TestMain). Every
// period samples, so the acquire is a no-op DismissSync proves (Rule 4:
// the goroutine made the lock's last release) and the release, a deep
// copy inside a sampling period, takes the detector's locked path.
func BenchmarkLockUnlockHook(b *testing.B) {
	var h Slot
	mu := new(sync.Mutex)
	heldAddrs = append(heldAddrs, mu)
	LockAcquire(&h, unsafe.Pointer(mu))
	LockRelease(&h, unsafe.Pointer(mu))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LockAcquire(&h, unsafe.Pointer(mu))
		LockRelease(&h, unsafe.Pointer(mu))
	}
}
