package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// TaskRange is a half-open span [Lo, Hi) of task indices: the ?range=lo-hi
// query of a job's result ledger, which the HTTP layer parses with
// ParseTaskRange. The wire form is "lo-hi" with Hi exclusive, matching the
// JSON field names below.
type TaskRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

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
