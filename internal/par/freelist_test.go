package par

import (
	"sync"
	"testing"
)

// TestFreeListConcurrentOwnership: under concurrent Get/Put every value
// has one holder at a time, and the list never keeps more than its bound.
func TestFreeListConcurrentOwnership(t *testing.T) {
	var list FreeList[*int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v, ok := list.Get()
				if !ok {
					v = new(int)
				}
				*v++ // a second holder would race here
				list.Put(v)
			}
		}()
	}
	wg.Wait()
	n := 0
	for {
		if _, ok := list.Get(); !ok {
			break
		}
		n++
	}
	if n == 0 || n > freeListMax {
		t.Errorf("list holds %d values after the run, want 1..%d", n, freeListMax)
	}
}

func TestFreeListDropsBeyondItsBound(t *testing.T) {
	var list FreeList[int]
	for i := 0; i < 3*freeListMax; i++ {
		list.Put(i)
	}
	for i := freeListMax - 1; i >= 0; i-- {
		if v, ok := list.Get(); !ok || v != i {
			t.Fatalf("Get = %d, %v; want %d (LIFO over the first %d values)", v, ok, i, freeListMax)
		}
	}
	if _, ok := list.Get(); ok {
		t.Error("list kept more than its bound")
	}
}
