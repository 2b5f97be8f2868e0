package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForEachIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		n := 103
		hits := make([]atomic.Int32, n)
		if err := ForEachIndexed(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexedLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 3, 8} {
		err := ForEachIndexed(50, workers, func(i int) error {
			switch i {
			case 7:
				return errB
			case 3:
				return errA
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}
}

func TestForEachIndexedRunsEveryIndexDespiteErrors(t *testing.T) {
	var ran atomic.Int32
	_ = ForEachIndexed(20, 4, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("err %d", i)
	})
	if ran.Load() != 20 {
		t.Errorf("ran %d of 20 indices", ran.Load())
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := Map(40, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}
