package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// TaskRange is a half-open span [Lo, Hi) of task indices. It is the one
// range representation shared across the stack: the scheduler leases remote
// work as ranges, the dist coordinator tracks outstanding lease spans with
// it, the store persists completed result prefixes as range records, the
// HTTP layer parses ?range=lo-hi into it, and the SDK re-exports it. The
// wire form is "lo-hi" with Hi exclusive, matching the JSON field names
// below.
type TaskRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of tasks in the range (0 when empty or inverted).
func (r TaskRange) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// String renders the wire form "lo-hi" (Hi exclusive).
func (r TaskRange) String() string { return fmt.Sprintf("%d-%d", r.Lo, r.Hi) }

// Contains reports whether task index i falls inside the range.
func (r TaskRange) Contains(i int) bool { return i >= r.Lo && i < r.Hi }

// ParseTaskRange parses the wire form "lo-hi" (both non-negative decimal
// integers, Hi exclusive and strictly greater than Lo).
func ParseTaskRange(s string) (TaskRange, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return TaskRange{}, fmt.Errorf("task range %q: want \"lo-hi\"", s)
	}
	l, err := strconv.Atoi(lo)
	if err != nil || l < 0 {
		return TaskRange{}, fmt.Errorf("task range %q: bad lo", s)
	}
	h, err := strconv.Atoi(hi)
	if err != nil || h <= l {
		return TaskRange{}, fmt.Errorf("task range %q: bad hi (want hi > lo, hi exclusive)", s)
	}
	return TaskRange{Lo: l, Hi: h}, nil
}

// CompressTaskRanges folds a task-index list into ranges, merging runs of
// consecutive ascending indices in encounter order. The encoding is lossless
// for any list — ExpandTaskRanges(CompressTaskRanges(idxs)) reproduces idxs
// exactly — so lease order survives the round trip even when the scheduler
// hands out a non-monotonic mix.
func CompressTaskRanges(idxs []int) []TaskRange {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]TaskRange, 0, 4)
	cur := TaskRange{Lo: idxs[0], Hi: idxs[0] + 1}
	for _, i := range idxs[1:] {
		if i == cur.Hi {
			cur.Hi++
			continue
		}
		out = append(out, cur)
		cur = TaskRange{Lo: i, Hi: i + 1}
	}
	return append(out, cur)
}

// ExpandTaskRanges flattens ranges back into the task-index list, preserving
// range order. Empty and inverted ranges contribute nothing.
func ExpandTaskRanges(ranges []TaskRange) []int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for _, r := range ranges {
		for i := r.Lo; i < r.Hi; i++ {
			out = append(out, i)
		}
	}
	return out
}
