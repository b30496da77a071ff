package cluster

import (
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// PartitionedRelation is a relation split into hash partitions, each cached
// on (owned by) a specific worker. It is the simulator's analog of a
// partitioned, cached RDD.
type PartitionedRelation struct {
	Schema types.Schema
	// Key holds the column indices the partitioning hash is computed
	// over; nil means round-robin (no key partitioning guarantee).
	Key []int
	// Parts holds the rows of each partition.
	Parts [][]types.Row
	// Owner holds the worker caching each partition.
	Owner []int
}

// Partition hash-partitions rel on the given key columns into the cluster's
// default partition count, caching partition i on its default owner. A nil
// key spreads rows round-robin.
func (c *Cluster) Partition(rel *relation.Relation, key []int) *PartitionedRelation {
	return c.PartitionN(rel, key, c.cfg.Partitions)
}

// PartitionN is Partition with an explicit partition count.
func (c *Cluster) PartitionN(rel *relation.Relation, key []int, parts int) *PartitionedRelation {
	p := &PartitionedRelation{
		Schema: rel.Schema,
		Key:    append([]int(nil), key...),
		Parts:  make([][]types.Row, parts),
		Owner:  make([]int, parts),
	}
	for i := range p.Owner {
		p.Owner[i] = c.DefaultOwner(i)
	}
	for i, row := range rel.Rows {
		var t int
		if key == nil {
			t = i % parts
		} else {
			t = int(types.HashRowKey(row, key) % uint64(parts))
		}
		p.Parts[t] = append(p.Parts[t], row)
	}
	return p
}
