package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// TestHashedBroadcastRoundTrip: a hashed broadcast table survives its wire
// encoding, rows in bucket order, and the encoder writes each bucket's rows
// in place, so a 1,000-key table costs a few buffer growths, not an
// allocation per key. The wire is the one the Go-map encoder wrote before
// the master built a RowTable, byte count for byte count.
func TestHashedBroadcastRoundTrip(t *testing.T) {
	rows := make([]types.Row, 0, 3000)
	for i := range 3000 {
		rows = append(rows, types.Row{types.Int(int64(i % 1000)), types.Int(int64(i)), types.Str(fmt.Sprint("v", i))})
	}
	table := BuildRowTable(rows, []int{0})
	if table.buckets() != 1000 {
		t.Fatalf("built %d keys, want 1000", table.buckets())
	}
	if got := decodeHashed(encodeHashed(table)); !reflect.DeepEqual(got, table.Rows()) {
		t.Fatal("decodeHashed(encodeHashed(t)) differs from t.Rows()")
	}
	allocs := testing.AllocsPerRun(10, func() { encodeHashed(table) })
	t.Logf("encodeHashed of %d keys: %.0f allocs", table.buckets(), allocs)
	if allocs > 16 {
		t.Errorf("encodeHashed of %d keys allocates %.0f times, want at most 16 (buffer growth only)", table.buckets(), allocs)
	}

	q := New(Config{Workers: 3, Partitions: 3}).NewQuery(nil)
	b := q.Broadcast(rows, types.Schema{}, []int{0})
	if got := q.Metrics.BroadcastBytes.Load(); got != 202908 {
		t.Errorf("uncompressed broadcast to 3 workers = %d bytes, want 202908", got)
	}
	for w := range 3 {
		if got := b.Table(w).Rows(); !reflect.DeepEqual(got, table.Rows()) {
			t.Errorf("worker %d's table differs from the master's", w)
		}
	}
}
