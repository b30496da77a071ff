package cluster

import (
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// A fetch only reads the shuffle's send memory, so a target fetched twice
// decodes the same rows both times — local and remote buckets alike.
func TestShuffleFetchTwice(t *testing.T) {
	c := newTestQuery(2, 2)
	sh := c.NewShuffle(2)
	sh.Add([][]types.Row{intRows([2]int64{1, 2}, [2]int64{3, 4}), intRows([2]int64{9, 9})}, 0)
	sh.Add([][]types.Row{intRows([2]int64{5, 6}), nil}, 1)
	first := sh.FetchTarget(0, 1)
	second := sh.FetchTarget(0, 1)
	want := intRows([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 6})
	if !sameRowSlices(first, want) || !sameRowSlices(second, want) {
		t.Errorf("fetched %v, then %v; want %v both times", first, second, want)
	}
}

// NewShuffle takes the older of the send memory's two generations: the
// previous shuffle stays readable while the next one is written, and the
// one before it has lost its bytes, so using it panics instead of decoding
// a newer shuffle's rows.
func TestShuffleRetakenGenerationPanics(t *testing.T) {
	c := newTestQuery(2, 2)
	old := c.NewShuffle(1)
	old.Add([][]types.Row{intRows([2]int64{1, 2})}, 0)
	next := c.NewShuffle(1)
	next.Add([][]types.Row{intRows([2]int64{3, 4}, [2]int64{5, 6})}, 0)
	if got := old.FetchTarget(0, 0); len(got) != 1 {
		t.Fatalf("the previous shuffle fetched %d rows, want 1", len(got))
	}
	c.NewShuffle(1) // takes old's generation
	for what, use := range map[string]func(){
		"FetchTarget": func() { old.FetchTarget(0, 0) },
		"Add":         func() { old.Add([][]types.Row{intRows([2]int64{7, 8})}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a shuffle whose generation was retaken did not panic", what)
				}
			}()
			use()
		}()
	}
	if got := next.FetchTarget(0, 0); len(got) != 2 {
		t.Errorf("the live shuffle fetched %d rows, want 2", len(got))
	}
}
