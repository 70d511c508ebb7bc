package mvcc

import (
	"sync"
	"testing"
)

func TestClockPinPublish(t *testing.T) {
	c := New()
	if c.Cur() != 0 || c.Stamp() != 1 {
		t.Fatalf("fresh clock: cur=%d stamp=%d", c.Cur(), c.Stamp())
	}
	c.Publish("a")
	v, s := c.Pin()
	if v != "a" || s != 1 {
		t.Fatalf("pin after first publish: v=%v s=%d", v, s)
	}
	c.Publish("b")
	v2, s2 := c.Pin()
	if v2 != "b" || s2 != 2 {
		t.Fatalf("pin after second publish: v=%v s=%d", v2, s2)
	}
	c.Unpin(s)
	c.Unpin(s2)
}

func TestClockRetireWaitsForPins(t *testing.T) {
	c := New()
	c.Publish("a") // epoch 1
	_, s := c.Pin()

	fired := false
	c.Retire(func() { fired = true }) // due at epoch 2
	c.Publish("b")                    // epoch 2, but reader pinned at 1
	if fired {
		t.Fatal("retire fired while an earlier epoch was pinned")
	}
	c.Unpin(s)
	if !fired {
		t.Fatal("retire did not fire after last pin released")
	}
}

func TestClockRetireFiresOnPublishWhenIdle(t *testing.T) {
	c := New()
	c.Publish("a")
	fired := false
	c.Retire(func() { fired = true })
	if fired {
		t.Fatal("retire fired before publish")
	}
	c.Publish("b")
	if !fired {
		t.Fatal("retire did not fire at publish with no pins")
	}
}

func TestClockPrunerSeesAdvancingMin(t *testing.T) {
	c := New()
	var mins []uint64
	c.AddPruner(func(min uint64) { mins = append(mins, min) })
	c.Publish("a")
	c.Publish("b")
	if len(mins) != 2 || mins[0] != 1 || mins[1] != 2 {
		t.Fatalf("pruner mins = %v, want [1 2]", mins)
	}
	_, s := c.Pin() // pin epoch 2
	c.Publish("c")  // min stays 2: no pruner call
	if len(mins) != 2 {
		t.Fatalf("pruner ran with a pinned floor: %v", mins)
	}
	c.Unpin(s)
	if len(mins) != 3 || mins[2] != 3 {
		t.Fatalf("pruner after unpin = %v, want final 3", mins)
	}
}

func TestClockWaitIdle(t *testing.T) {
	c := New()
	c.Publish("a")
	_, s := c.Pin()
	done := make(chan struct{})
	go func() {
		c.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitIdle returned with a pin outstanding")
	default:
	}
	c.Unpin(s)
	<-done
}

func TestClockConcurrentPins(t *testing.T) {
	c := New()
	c.Publish(0) // epoch 1 carries 0, so every epoch s carries s-1
	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				v, s := c.Pin()
				if s < last {
					t.Errorf("pinned epoch went backwards: %d then %d", last, s)
				}
				last = s
				if uint64(v.(int)) != s-1 {
					t.Errorf("epoch %d carries value %v", s, v)
				}
				c.Unpin(s)
				if first {
					started.Done()
				}
			}
		}()
	}
	// Barrier: every reader has pinned at least once before the first
	// publication, so the publish loop provably races live readers.
	started.Wait()
	for e := 1; e <= 1000; e++ {
		c.Publish(e)
	}
	close(stop)
	wg.Wait()
	c.WaitIdle()
}
