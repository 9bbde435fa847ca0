package service

import (
	"sync"
	"testing"
	"time"
)

func TestBatcherCoalesces(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	release := make(chan struct{})
	first := make(chan struct{})
	b := newBatcher(8, time.Millisecond, func(batch []*embedJob) {
		mu.Lock()
		sizes = append(sizes, len(batch))
		firstBatch := len(sizes) == 1
		mu.Unlock()
		if firstBatch {
			close(first)
			<-release // hold the collector so later jobs pile up
		}
		for _, j := range batch {
			close(j.done)
		}
	})
	defer b.close()

	j0 := &embedJob{done: make(chan struct{})}
	if err := b.enqueue(j0); err != nil {
		t.Fatal(err)
	}
	<-first
	// While the collector is blocked, queue five more; they must come out as
	// one coalesced batch.
	jobs := make([]*embedJob, 5)
	for i := range jobs {
		jobs[i] = &embedJob{done: make(chan struct{})}
		if err := b.enqueue(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for _, j := range jobs {
		<-j.done
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 5 {
		t.Fatalf("batch sizes %v, want [1 5]", sizes)
	}
}
