package pager

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// catchFault runs fn and returns the *FaultError it panicked with, or
// nil when it completed.
func catchFault(fn func()) (fe *FaultError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if fe, ok = r.(*FaultError); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestFailFirstReadsIsTransient(t *testing.T) {
	a := &Accountant{}
	a.SetFaultPolicy(&FaultPolicy{FailFirstReads: 3})
	for i := 0; i < 3; i++ {
		fe := catchFault(func() { a.Read(1) })
		if fe == nil {
			t.Fatalf("read %d: expected injected fault", i+1)
		}
		if fe.Op != "read" || fe.Seq != int64(i+1) {
			t.Fatalf("read %d: got %+v", i+1, fe)
		}
	}
	// The outage has cleared: subsequent reads succeed.
	for i := 0; i < 10; i++ {
		if fe := catchFault(func() { a.Read(1) }); fe != nil {
			t.Fatalf("post-outage read faulted: %v", fe)
		}
	}
	if got := a.Stats().PageReads; got != 13 {
		t.Fatalf("faulted reads must still be counted: got %d, want 13", got)
	}
}

func TestEveryKthWriteIsDeterministic(t *testing.T) {
	a := &Accountant{}
	a.SetFaultPolicy(&FaultPolicy{EveryKthWrite: 4})
	for i := 1; i <= 20; i++ {
		fe := catchFault(func() { a.Write(1) })
		if (i%4 == 0) != (fe != nil) {
			t.Fatalf("write %d: fault=%v, want fault iff multiple of 4", i, fe)
		}
	}
}

func TestSeededProbabilityIsReproducible(t *testing.T) {
	sequence := func() []bool {
		a := &Accountant{}
		a.SetFaultPolicy(&FaultPolicy{ReadProb: 0.5, Seed: 42})
		out := make([]bool, 64)
		for i := range out {
			out[i] = catchFault(func() { a.Read(1) }) != nil
		}
		return out
	}
	first, second := sequence(), sequence()
	faults := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: same seed produced different outcomes", i)
		}
		if first[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(first) {
		t.Fatalf("p=0.5 produced %d/%d faults", faults, len(first))
	}
}

func TestInjectedLatency(t *testing.T) {
	a := &Accountant{}
	a.SetFaultPolicy(&FaultPolicy{Latency: 2 * time.Millisecond})
	start := time.Now()
	a.Read(3)
	if el := time.Since(start); el < 6*time.Millisecond {
		t.Fatalf("3 reads at 2ms injected latency took only %v", el)
	}
	a.SetFaultPolicy(nil)
	start = time.Now()
	a.Read(3)
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("cleared policy still sleeping: %v", el)
	}
}

func TestFaultErrorIsTyped(t *testing.T) {
	var err error = &FaultError{Op: "read", Seq: 7}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Seq != 7 {
		t.Fatalf("errors.As failed on %v", err)
	}
}

// TestSetFaultPolicyConcurrent installs and clears latency policies
// while readers and writers are in flight; run with -race. The
// Accountant documents all its methods as safe for concurrent use
// because the policy is an atomic pointer.
func TestSetFaultPolicyConcurrent(t *testing.T) {
	a := &Accountant{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Read(1)
				a.Write(1)
				a.Stats()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a.SetFaultPolicy(&FaultPolicy{Latency: time.Duration(i%3) * time.Microsecond})
		if i%10 == 0 {
			a.SetFaultPolicy(nil)
		}
	}
	close(stop)
	wg.Wait()
	a.SetFaultPolicy(nil)
}
