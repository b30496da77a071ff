package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// TestHashedBroadcastRoundTrip: a hashed broadcast table survives its wire
// encoding, and the encoder writes each bucket's rows in place, so a
// 1,000-key table costs a few buffer growths, not an allocation per key.
func TestHashedBroadcastRoundTrip(t *testing.T) {
	rows := make([]types.Row, 0, 3000)
	for i := range 3000 {
		rows = append(rows, types.Row{types.Int(int64(i % 1000)), types.Int(int64(i)), types.Str(fmt.Sprint("v", i))})
	}
	table := buildTable(rows, []int{0})
	if len(table) != 1000 {
		t.Fatalf("built %d keys, want 1000", len(table))
	}
	if got := decodeHashed(encodeHashed(table)); !reflect.DeepEqual(got, table) {
		t.Fatal("decodeHashed(encodeHashed(t)) differs from t")
	}
	allocs := testing.AllocsPerRun(10, func() { encodeHashed(table) })
	t.Logf("encodeHashed of %d keys: %.0f allocs", len(table), allocs)
	if allocs > 16 {
		t.Errorf("encodeHashed of %d keys allocates %.0f times, want at most 16 (buffer growth only)", len(table), allocs)
	}
}
