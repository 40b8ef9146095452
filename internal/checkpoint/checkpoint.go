// Package checkpoint persists and restores the live state of a
// scheduling session — the cluster layout, every placement, and the
// session's ledgers — so long-running simulations (and a production
// scheduler manager) can stop and resume without replaying history.
//
// The format is the versioned JSON SessionSnapshot (v2), captured by
// CaptureSession and restored by SessionSnapshot.Restore: per-machine
// capacities and down state, the session's undeployed, stranded and
// requeue ledgers, a layout block that is validated — never
// defaulted — on restore, a content checksum, and atomic
// write-temp-then-rename persistence (WriteFile).  Sessions of any
// shard count checkpoint the same way; a snapshot records machines and
// placements in the session's machine ids, and restore replays each
// placement into its owning shard.  The workload itself is stored by
// reference (its trace must be preserved alongside, which the paper's
// CM/MM split also implies: the scheduler manager snapshots only the
// assignment state).
package checkpoint

import "aladdin/internal/topology"

// Placement is one container→machine binding.
type Placement struct {
	Container string             `json:"container"`
	Machine   topology.MachineID `json:"machine"`
}
