package pager

import (
	"sync"
	"testing"
	"time"
)

func TestAccountantCounts(t *testing.T) {
	var a Accountant
	a.Read(3)
	a.Write(2)
	s := a.Stats()
	if s.PageReads != 3 || s.PageWrites != 2 || s.Total() != 5 {
		t.Errorf("Stats = %+v", s)
	}
	a.Reset()
	if s := a.Stats(); s.Total() != 0 {
		t.Errorf("after Reset: %+v", s)
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{PageReads: 10, PageWrites: 4}
	b := Stats{PageReads: 7, PageWrites: 1}
	d := a.Sub(b)
	if d.PageReads != 3 || d.PageWrites != 3 {
		t.Errorf("Sub = %+v", d)
	}
	if d.String() != "reads=3 writes=3" {
		t.Errorf("String = %q", d.String())
	}
}

func TestNilAccountantIsNoop(t *testing.T) {
	var a *Accountant
	a.Read(1) // must not panic
	a.Write(1)
	a.Reset()
	if s := a.Stats(); s.Total() != 0 {
		t.Errorf("nil Stats = %+v", s)
	}
}

// TestReadDelay pins where the one latency model, FaultPolicy.Latency,
// is paid: per logical page read without a buffer pool, and with one
// only on a physical read (a miss), never on the logical charge.
func TestReadDelay(t *testing.T) {
	const d = 2 * time.Millisecond
	var a Accountant
	a.SetFaultPolicy(&FaultPolicy{Latency: d})
	start := time.Now()
	a.Read(3)
	if el := time.Since(start); el < 3*d {
		t.Errorf("unpooled: 3 reads took %v, want >= %v", el, 3*d)
	}

	acct, pool, s := newTestPool(t, MinPoolFrames)
	create(s, 1, 1)
	pool.EvictAll()
	acct.SetFaultPolicy(&FaultPolicy{Latency: d})
	start = time.Now()
	get(s, 1)
	if el := time.Since(start); el < d {
		t.Errorf("pooled miss took %v, want >= %v", el, d)
	}
	start = time.Now()
	acct.Read(100)
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Errorf("pooled logical reads slept: 100 took %v", el)
	}
}

func TestConcurrentCounting(t *testing.T) {
	var a Accountant
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Read(1)
				a.Write(1)
			}
		}()
	}
	wg.Wait()
	if s := a.Stats(); s.PageReads != 8000 || s.PageWrites != 8000 {
		t.Errorf("concurrent Stats = %+v", s)
	}
}
