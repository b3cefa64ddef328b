package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gameofcoins/internal/engine"
)

// TestReadDocsRace runs ReadDocs, HeldDocs, ReadResult and Load against
// appends and compactions of the same jobs, done records whose documents
// arrive later: every read returns the documents and the result the writer
// sent, whichever log they lie in by then. Run under -race (CI's
// race-stress step).
func TestReadDocsRace(t *testing.T) {
	s := openTemp(t)
	const jobs, n, batch = 6, 120, 10
	result := func(j int) []byte { return fmt.Appendf(nil, `{"job":%d,"runs":[%d,%d]}`, j, j*n, n) }
	runs := make([]engine.Docs, jobs)
	for j := range runs {
		for i := range n {
			runs[j] = runs[j].AppendDoc(fmt.Appendf(nil, `{"steps":%d,"converged":%t}`, j*1000+i, i%2 == 0))
		}
		if err := s.PutJob(JobRecord{ID: "job-" + itoa(j), Tasks: n, State: JobDone, Result: result(j)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				j := k % jobs
				if res, err := s.ReadResult(nil, "job-"+itoa(j)); err != nil || !bytes.Equal(res, result(j)) {
					errs <- fmt.Errorf("job-%d's result %s, %v", j, res, err)
					return
				}
				m := s.HeldDocs("job-" + itoa(j))
				if k%50 == 0 {
					if _, err := s.Load(); err != nil {
						errs <- err
						return
					}
				}
				if m == 0 {
					continue
				}
				lo := k % m
				hi := lo + 1 + k*7%(m-lo)
				body, err := s.ReadDocs(nil, "job-"+itoa(j), lo, hi)
				if err == nil && !bytes.Equal(body, runs[j].Slice(lo, hi).Bytes()) {
					err = fmt.Errorf("job-%d [%d,%d) read %.80q", j, lo, hi, body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	write := func() error {
		for wm := batch; wm <= n; wm += batch {
			for j := range runs {
				if err := s.PutJobDocs("job-"+itoa(j), runs[j].Slice(0, wm)); err != nil {
					return err
				}
			}
			if wm%(3*batch) == 0 {
				s.mu.Lock()
				err := s.compactLocked()
				s.mu.Unlock()
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := write()
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		err = errors.Join(err, e)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzReadDocsMatchesLedger replays spans into a store and into an
// in-memory reference that applies the store's rules: a span's part past
// the job's documents lands, first writer winning, unless the span starts
// past them; nothing lands past RangeDocCap, or when the write fails. Each
// three input bytes are one span of one of two jobs — its first task, its
// length (times 64 for a long one, which reaches the cap), and flags that
// pick the job, fail the write, or send it through PutJobDocs from task 0
// — and its documents differ from earlier spans' for the same tasks, so an
// overlap that overwrote would show. Every ReadDocs(lo, hi) over the spans'
// edges must match the reference, before and after a reopen and after a
// compaction.
func FuzzReadDocsMatchesLedger(f *testing.F) {
	for _, seed := range []string{
		"\x00\x05\x00\x03\x04\x00\x00\x09\x00",
		"\x00\x05\x00\x00\x05\x01\x02\x06\x02\x05\x02\x01",
		"\x00\x02\x08\x00\x03\x08\x00\x02\x09\x10\x04\x00",
		"\x00\x03\x00\x07\x04\x00\x02\x03\x00\x00\x02\x04\x00\x08\x04",
		"\x01\x02\x00\x00\x01\x01\x00\x04\x03",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 3*16 {
			in = in[:3*16]
		}
		dir := t.TempDir()
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		ids := []string{"job-1", "job-2"}
		ref := map[string][]string{}
		edges := map[string][]int{}
		for _, id := range ids {
			if err := s.PutJob(JobRecord{ID: id, State: JobSubmitted, Tasks: 1 << 20}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k+3 <= len(in); k += 3 {
			lo, n, flags := int(in[k]), int(in[k+1]), in[k+2]
			if flags&8 != 0 {
				n *= 64
			}
			if flags&4 != 0 {
				n, lo = lo+n, 0 // PutJobDocs sends a run from task 0
			}
			id := ids[flags&1]
			span := make([]string, n)
			for i := range span {
				switch (k / 3) % 3 {
				case 0:
					span[i] = itoa(lo + i)
				case 1:
					span[i] = fmt.Sprintf(`{"t":%d,"k":%d}`, lo+i, k)
				default:
					span[i] = fmt.Sprintf(`"%d,%d"`, lo+i, k)
				}
			}
			var run engine.Docs
			for _, d := range span {
				run = run.AppendDoc([]byte(d))
			}
			fail := flags&2 != 0
			var restore func()
			if fail {
				restore = failWrites(t, s)
			}
			if flags&4 != 0 {
				err = s.PutJobDocs(id, run)
			} else {
				err = s.PutJobRange(id, lo, docList(run))
			}
			if fail {
				restore()
			}
			end := len(ref[id])
			lands := lo <= end && lo+n > end && end < RangeDocCap // a failed write is one that would land
			if (err != nil) != (fail && lands) {
				t.Fatalf("span %d (%s [%d,%d), fail %v): %v", k/3, id, lo, lo+n, fail, err)
			}
			if lands && !fail {
				ref[id] = append(ref[id], span[end-lo:min(lo+n, RangeDocCap)-lo]...)
			}
			edges[id] = append(edges[id], lo, lo+n, end)
		}
		check := func(when string) {
			for _, id := range ids {
				want := ref[id]
				if got := s.HeldDocs(id); got != len(want) {
					t.Fatalf("%s: %s holds %d documents, want %d", when, id, got, len(want))
				}
				var pts []int
				for _, e := range append(edges[id], 0, len(want)) {
					for _, p := range []int{e - 1, e, e + 1} {
						if p >= 0 && p <= len(want) {
							pts = append(pts, p)
						}
					}
				}
				slices.Sort(pts)
				pts = slices.Compact(pts)
				for a := range pts {
					for b := a + 1; b < len(pts); b++ {
						lo, hi := pts[a], pts[b]
						body, err := s.ReadDocs(nil, id, lo, hi)
						if w := strings.Join(want[lo:hi], ","); err != nil || string(body) != w {
							t.Fatalf("%s: %s [%d,%d) = %.80q, %v; want %.80q", when, id, lo, hi, body, err, w)
						}
					}
				}
				if _, err := s.ReadDocs(nil, id, 0, len(want)+1); !errors.Is(err, ErrNoDocs) {
					t.Fatalf("%s: %s [0,%d), one past its documents: %v", when, id, len(want)+1, err)
				}
			}
		}
		check("live")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = OpenFile(dir); err != nil {
			t.Fatal(err)
		}
		check("reopened")
		s.mu.Lock()
		err = s.compactLocked()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		check("compacted")
	})
}
