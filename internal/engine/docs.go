package engine

import (
	"encoding/json"
	"fmt"
	"math"
)

// Docs is a run of the task documents of consecutive tasks, packed: the
// documents joined by commas as one byte body — exactly the bytes between
// the brackets of a ?range= body's or a store range line's results array —
// plus the offset at which each document ends. The result ledger and range
// reads hold documents in this form, as views of one another's bodies, so a
// job's documents are one allocation rather than one per task, and none of
// them holds a pointer for the garbage collector to mark.
//
// A Docs is a value like a slice. Slice and Bytes return views that share
// its body; Grow, AppendDoc and Append, like append, write into spare
// capacity when there is enough and copy otherwise. Every view is capped at
// its end, so appending to one copies: nobody writes into a body they did
// not allocate. The zero Docs is an empty run. Documents are single JSON
// values, so a run's bytes determine its documents.
type Docs struct {
	// body[start:] is the run; ends[i] is the offset in body just past
	// document i, which starts at start or one past ends[i-1].
	body  []byte
	ends  []uint32
	start int
}

// MaxDocsBytes bounds the body of one run: its offsets are 32 bits wide,
// and the bound is an int on every platform. AppendDoc and Append panic
// past it: callers that take documents from outside the program check
// first.
const MaxDocsBytes = math.MaxInt32

// JoinedDocs returns the run whose body is body, documents joined by
// commas, and whose document i ends at offset ends[i] of it; the last ends
// the body. The run takes both slices over: the caller writes to neither
// again.
func JoinedDocs(body []byte, ends []uint32) Docs {
	if len(ends) == 0 || int(ends[len(ends)-1]) != len(body) {
		panic(fmt.Sprintf("engine: %d document ends for a body of %d bytes", len(ends), len(body)))
	}
	return Docs{body: body, ends: ends}
}

// Len returns the number of documents in the run.
func (d Docs) Len() int { return len(d.ends) }

// Size returns the length of the run's body: its documents and the commas
// between them.
func (d Docs) Size() int { return len(d.body) - d.start }

// Doc returns document i, capped at its end.
func (d Docs) Doc(i int) json.RawMessage {
	lo, hi := d.start, int(d.ends[i])
	if i > 0 {
		lo = int(d.ends[i-1]) + 1
	}
	return d.body[lo:hi:hi]
}

// Bytes returns the run's documents joined by commas, capped at its end.
// Callers must not modify it.
func (d Docs) Bytes() []byte { return d.body[d.start:len(d.body):len(d.body)] }

// Slice returns a view of documents [lo, hi), capped at hi.
func (d Docs) Slice(lo, hi int) Docs {
	ends := d.ends[lo:hi:hi]
	if lo == hi {
		return Docs{}
	}
	end := int(ends[len(ends)-1])
	v := Docs{body: d.body[:end:end], ends: ends, start: d.start}
	if lo > 0 {
		v.start = int(d.ends[lo-1]) + 1
	}
	return v
}

// Grow returns d with room for n more documents of size bytes in all,
// commas included, without another allocation. Unlike append's growth it
// allocates exactly what is asked, so a caller that knows what is coming
// leaves no slack.
func (d Docs) Grow(n, size int) Docs {
	if cap(d.body)-len(d.body) < size {
		d.body = append(make([]byte, 0, len(d.body)+size), d.body...)
	}
	if cap(d.ends)-len(d.ends) < n {
		d.ends = append(make([]uint32, 0, len(d.ends)+n), d.ends...)
	}
	return d
}

// AppendDoc returns d with doc as its last document. doc must be one JSON
// value.
func (d Docs) AppendDoc(doc []byte) Docs {
	if len(d.ends) > 0 {
		d.body = append(d.body, ',')
	}
	d.body = append(d.body, doc...)
	d.ends = append(d.ends, checkedEnd(len(d.body)))
	return d
}

// Append returns d followed by the documents of more.
func (d Docs) Append(more Docs) Docs {
	if more.Len() == 0 {
		return d
	}
	if len(d.ends) == 0 {
		d = d.Grow(more.Len(), more.Size())
	} else {
		d = d.Grow(more.Len(), 1+more.Size())
		d.body = append(d.body, ',')
	}
	shift := len(d.body) - more.start
	d.body = append(d.body, more.Bytes()...)
	checkedEnd(len(d.body))
	for _, e := range more.ends {
		d.ends = append(d.ends, uint32(int(e)+shift))
	}
	return d
}

func checkedEnd(n int) uint32 {
	if n > MaxDocsBytes {
		panic(fmt.Sprintf("engine: a run of documents grew to %d bytes, past MaxDocsBytes", n))
	}
	return uint32(n)
}
