package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPacerParksEveryClient: while a pause is on, no client gets past
// wait, and a client that stops does not hold a pause up.
func TestPacerParksEveryClient(t *testing.T) {
	var p pacer
	p.init(3)
	var steps [3]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.leave()
			for i := 0; ; i++ {
				if c == 2 && i == 100 {
					return // stops early
				}
				select {
				case <-stop:
					return
				default:
				}
				p.wait()
				steps[c].Add(1)
			}
		}()
	}
	for round := 0; round < 50; round++ {
		p.pause()
		var before [3]int64
		for c := range steps {
			before[c] = steps[c].Load()
		}
		time.Sleep(100 * time.Microsecond)
		for c := range steps {
			if got := steps[c].Load(); got != before[c] {
				t.Fatalf("client %d stepped from %d to %d during a pause", c, before[c], got)
			}
		}
		p.resume()
	}
	close(stop)
	wg.Wait()
}
