package par

import (
	"math"
	"sync"
	"testing"
)

// TestSizeClasses: the classes ascend, every size lies in the class
// classBelow names and below the next one, and a fresh array is at most
// an eighth larger than the size it was drawn for.
func TestSizeClasses(t *testing.T) {
	for i := 1; i < 40<<classBits; i++ {
		if classSize(i+1) <= classSize(i) {
			t.Fatalf("class %d has size %d, class %d %d", i+1, classSize(i+1), i, classSize(i))
		}
		if classBelow(classSize(i)) != i {
			t.Fatalf("classBelow(classSize(%d) = %d) = %d", i, classSize(i), classBelow(classSize(i)))
		}
	}
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 1000, 1 << 14, 19_200, 57_600, 1<<20 + 1} {
		k := classBelow(n)
		if classSize(k) > n || classSize(k+1) <= n {
			t.Errorf("classBelow(%d) = %d of size %d, next %d", n, k, classSize(k), classSize(k+1))
		}
		if got := cap(NewSlicePool(0).Get(n)); got < n || 8*(got-n) > n {
			t.Errorf("Get(%d) has capacity %d", n, got)
		}
	}
}

// TestSlicePoolReusesAndPoisons: an array handed back is what the next
// Get of a size it can serve returns, poisoned in full; sizes of another
// class do not take it, and an empty Get is non-nil.
func TestSlicePoolReusesAndPoisons(t *testing.T) {
	p := NewSlicePool(float32(math.NaN()))
	a := p.Get(19_000)
	for i := range a {
		a[i] = 1
	}
	p.Put(a)
	if b := p.Get(10_000); cap(b) == cap(a) {
		t.Error("a front-end-sized Get took the raw-sized array")
	}
	b := p.Get(18_900)
	if &b[0] != &a[0] {
		t.Fatal("Get did not reuse the array handed back")
	}
	for i, v := range b[:cap(b)] {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("recycled element %d is %v, want the poison", i, v)
		}
	}
	if e := p.Get(0); e == nil || len(e) != 0 {
		t.Errorf("Get(0) = %v, want empty and non-nil", e)
	}
	if n := testing.AllocsPerRun(10, func() { p.Put(p.Get(18_000)) }); n != 0 {
		t.Errorf("a warmed Get/Put allocates %.0f times", n)
	}
}

// TestSlicePoolTakesTheClassAbove: with its own class empty, Get hands
// out an idle array of the class above.
func TestSlicePoolTakesTheClassAbove(t *testing.T) {
	p := NewSlicePool(0)
	k := classBelow(19_000)
	above := make([]int, classSize(k+1))
	p.Put(above)
	if got := p.Get(classSize(k)); &got[0] != &above[0] {
		t.Errorf("Get(%d) allocated with an idle array of the class above", classSize(k))
	}
}

// TestSlicePoolConcurrentOwnership: under concurrent Get/Put from several
// goroutines, with sizes that straddle a class boundary, every array has
// one holder at a time (run under -race, a second holder's writes race).
func TestSlicePoolConcurrentOwnership(t *testing.T) {
	p := NewSlicePool(int32(-1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := p.Get(1000 + (g*37+i)%100)
				for j := range s {
					s[j] = int32(g)
				}
				for j := range s {
					if s[j] != int32(g) {
						t.Errorf("goroutine %d: element %d changed under it", g, j)
						return
					}
				}
				p.Put(s)
			}
		}()
	}
	wg.Wait()
}
