// Package topology models the physical cluster: machines grouped into
// racks, racks grouped into (sub-)clusters.  These are the N, R and G
// vertex tiers of Aladdin's flow network (§III.A); introducing the
// aggregate tiers reduces the edge count from O(|T|·|N|) to
// O(|T| + |A|·|R| + |N|).
package topology

import (
	"fmt"
	"sort"
	"sync/atomic"

	"aladdin/internal/resource"
)

// MachineID identifies one machine; IDs are dense indexes into the
// cluster's machine slice so schedulers can use them as array offsets.
type MachineID int

// Invalid is the MachineID returned when no machine qualifies.
const Invalid MachineID = -1

// Machine is a single host.  Machines track their own allocation so a
// scheduler can ask "does this container fit" in O(1).
type Machine struct {
	ID      MachineID
	Name    string
	Rack    string
	Cluster string

	capacity resource.Vector
	used     resource.Vector

	// down marks a failed machine: it admits no placements until it
	// is marked up again.  Residents are not evicted here — failure
	// semantics (flow cancellation, re-placement) belong to the
	// scheduler; topology only tracks availability.
	down bool

	// containers maps container IDs placed on this machine to their
	// demand so deallocation restores exactly what allocation took.
	containers map[string]resource.Vector

	// idsCache holds the sorted ContainerIDs result between
	// allocation changes (nil = not built).  The baseline schedulers
	// read the hosted set far more often than they change it, while
	// Aladdin's placement path never reads it, so it is built on first
	// read rather than kept on every Allocate.  The build is published
	// atomically, so concurrent readers may share a machine (at worst
	// two build the same list); Allocate, Release and Reset are
	// writers and, like every writer, must not run beside a reader.
	idsCache atomic.Pointer[[]string]
}

// NewMachine builds an empty machine with the given capacity.
func NewMachine(id MachineID, name, rack, cluster string, capacity resource.Vector) *Machine {
	return &Machine{
		ID:         id,
		Name:       name,
		Rack:       rack,
		Cluster:    cluster,
		capacity:   capacity,
		containers: make(map[string]resource.Vector),
	}
}

// Capacity returns the machine's total resources.
func (m *Machine) Capacity() resource.Vector { return m.capacity }

// Used returns the resources currently allocated.
func (m *Machine) Used() resource.Vector { return m.used }

// Free returns capacity minus used.
func (m *Machine) Free() resource.Vector { return m.capacity.Sub(m.used) }

// NumContainers returns how many containers are placed here.
func (m *Machine) NumContainers() int { return len(m.containers) }

// Hosts reports whether the named container is placed on this machine.
func (m *Machine) Hosts(containerID string) bool {
	_, ok := m.containers[containerID]
	return ok
}

// Allocations returns a copy of the container→demand map.
func (m *Machine) Allocations() map[string]resource.Vector {
	out := make(map[string]resource.Vector, len(m.containers))
	for id, d := range m.containers {
		out[id] = d
	}
	return out
}

// ContainerIDs returns the IDs of hosted containers in sorted order.
// Concurrent readers are safe.  The slice is cached until the next
// Allocate/Release/Reset, which may change it in place: callers must
// not modify it, and must copy it to keep it across a change.
func (m *Machine) ContainerIDs() []string {
	if p := m.idsCache.Load(); p != nil {
		return *p
	}
	ids := make([]string, 0, len(m.containers))
	for id := range m.containers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	m.idsCache.Store(&ids)
	return ids
}

// Up reports whether the machine is in service.  Down machines admit
// no placements; every search path treats them as having no residual
// capacity.
func (m *Machine) Up() bool { return !m.down }

// MarkDown takes the machine out of service.  Idempotent; residents
// stay allocated until the caller evicts them.
func (m *Machine) MarkDown() { m.down = true }

// MarkUp returns the machine to service.  Idempotent.
func (m *Machine) MarkUp() { m.down = false }

// Fits reports whether a demand fits into the remaining free space.
// This is the linear half of Equation 6.  A down machine fits
// nothing, which is what keeps every search path (indexed, naive,
// migration, preemption) off failed hardware.
func (m *Machine) Fits(demand resource.Vector) bool {
	return !m.down && demand.Fits(m.Free())
}

// Allocate places a container with the given demand.  It returns an
// error if the machine is down, the container is already present or
// the demand does not fit; the machine is unchanged on error.
func (m *Machine) Allocate(containerID string, demand resource.Vector) error {
	if m.down {
		return fmt.Errorf("topology: machine %q is down", m.Name)
	}
	if _, ok := m.containers[containerID]; ok {
		return fmt.Errorf("topology: container %q already on machine %q", containerID, m.Name)
	}
	if !m.Fits(demand) {
		return fmt.Errorf("topology: container %q (%s) does not fit on %q (free %s)",
			containerID, demand, m.Name, m.Free())
	}
	m.containers[containerID] = demand
	m.used = m.used.Add(demand)
	if p := m.idsCache.Load(); p != nil {
		// Keep the cache sorted incrementally: one insertion beats
		// re-sorting the whole list on the next read.
		ids := *p
		i := sort.SearchStrings(ids, containerID)
		ids = append(ids, "")
		copy(ids[i+1:], ids[i:])
		ids[i] = containerID
		*p = ids
	}
	return nil
}

// Release removes a container, returning its demand.  It returns an
// error if the container is not present.
func (m *Machine) Release(containerID string) (resource.Vector, error) {
	demand, ok := m.containers[containerID]
	if !ok {
		return resource.Vector{}, fmt.Errorf("topology: container %q not on machine %q", containerID, m.Name)
	}
	delete(m.containers, containerID)
	m.used = m.used.Sub(demand)
	if p := m.idsCache.Load(); p != nil {
		ids := *p
		if i := sort.SearchStrings(ids, containerID); i < len(ids) && ids[i] == containerID {
			*p = append(ids[:i], ids[i+1:]...)
		}
	}
	return demand, nil
}

// Reset removes every container.
func (m *Machine) Reset() {
	m.containers = make(map[string]resource.Vector)
	m.used = resource.Vector{}
	m.idsCache.Store(nil)
}

// Utilization returns mean used/capacity across dimensions.
func (m *Machine) Utilization() float64 {
	return resource.Utilization(m.used, m.capacity)
}

// CPUUtilization returns used/capacity on the CPU dimension only.
func (m *Machine) CPUUtilization() float64 {
	return resource.CPUUtilization(m.used, m.capacity)
}

// Rack groups machines that share a top-of-rack switch.
type Rack struct {
	Name     string
	Cluster  string
	Machines []MachineID
}

// SubCluster groups racks (the G tier of the flow network).
type SubCluster struct {
	Name  string
	Racks []string
}

// Cluster is the full machine inventory.
type Cluster struct {
	machines []*Machine
	racks    map[string]*Rack
	subs     map[string]*SubCluster
	rackOrd  []string
	subOrd   []string
}

// Config describes a homogeneous cluster layout.
type Config struct {
	// Machines is the total machine count.
	Machines int
	// MachinesPerRack controls rack sizing; defaults to 40 (a common
	// production rack size) when zero.
	MachinesPerRack int
	// RacksPerCluster controls sub-cluster sizing; defaults to 25.
	RacksPerCluster int
	// Capacity is per-machine capacity.  The paper's machines are
	// homogeneous 32 CPU / 64 GB.
	Capacity resource.Vector
}

// AlibabaConfig returns the paper's evaluation cluster shape at the
// given machine count: homogeneous 32-core / 64 GB machines.
func AlibabaConfig(machines int) Config {
	return Config{
		Machines: machines,
		Capacity: resource.Cores(32, 64*1024),
	}
}

// New builds a cluster from the configuration.
func New(cfg Config) *Cluster {
	perRack := cfg.MachinesPerRack
	if perRack <= 0 {
		perRack = 40
	}
	perCluster := cfg.RacksPerCluster
	if perCluster <= 0 {
		perCluster = 25
	}
	c := &Cluster{
		racks: make(map[string]*Rack),
		subs:  make(map[string]*SubCluster),
	}
	for i := 0; i < cfg.Machines; i++ {
		rackIdx := i / perRack
		subIdx := rackIdx / perCluster
		rackName := fmt.Sprintf("rack-%04d", rackIdx)
		subName := fmt.Sprintf("cluster-%02d", subIdx)
		m := NewMachine(MachineID(i), fmt.Sprintf("machine-%05d", i), rackName, subName, cfg.Capacity)
		c.machines = append(c.machines, m)

		rack, ok := c.racks[rackName]
		if !ok {
			rack = &Rack{Name: rackName, Cluster: subName}
			c.racks[rackName] = rack
			c.rackOrd = append(c.rackOrd, rackName)
			sub, ok := c.subs[subName]
			if !ok {
				sub = &SubCluster{Name: subName}
				c.subs[subName] = sub
				c.subOrd = append(c.subOrd, subName)
			}
			sub.Racks = append(sub.Racks, rackName)
		}
		rack.Machines = append(rack.Machines, m.ID)
	}
	return c
}

// MachineSpec describes one machine for FromSpecs: an explicit
// (name, rack, sub-cluster, capacity, availability) tuple.  Machine
// IDs are assigned densely in spec order, so a spec list captured
// from a live cluster in ID order rebuilds the identical topology —
// including rack boundaries that New's arithmetic layout cannot
// express (NewHeterogeneous starts a fresh rack per machine class).
type MachineSpec struct {
	Name    string
	Rack    string
	Cluster string
	// Capacity is the machine's total resources.
	Capacity resource.Vector
	// Down marks the machine out of service at construction.
	Down bool
}

// FromSpecs rebuilds a cluster from explicit machine specs — the
// restore path of a checkpoint.  Racks and sub-clusters are created
// in first-seen order, exactly as New and NewHeterogeneous do, so a
// spec list read off a live cluster in machine-ID order reproduces
// the same traversal order (and therefore the same scheduling
// decisions).  Validation rejects empty or duplicate machine names,
// empty rack/sub-cluster names, negative or zero capacities, and a
// rack claimed by two different sub-clusters.
func FromSpecs(specs []MachineSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: no machine specs")
	}
	c := &Cluster{
		racks: make(map[string]*Rack),
		subs:  make(map[string]*SubCluster),
	}
	seen := make(map[string]bool, len(specs))
	for i, sp := range specs {
		if sp.Name == "" || sp.Rack == "" || sp.Cluster == "" {
			return nil, fmt.Errorf("topology: spec %d: empty name, rack or cluster", i)
		}
		if seen[sp.Name] {
			return nil, fmt.Errorf("topology: duplicate machine name %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Capacity.CPUMilli < 0 || sp.Capacity.MemMB < 0 {
			return nil, fmt.Errorf("topology: machine %q has negative capacity %s", sp.Name, sp.Capacity)
		}
		if sp.Capacity.Zero() {
			return nil, fmt.Errorf("topology: machine %q has zero capacity", sp.Name)
		}
		m := NewMachine(MachineID(i), sp.Name, sp.Rack, sp.Cluster, sp.Capacity)
		if sp.Down {
			m.MarkDown()
		}
		c.machines = append(c.machines, m)

		rack, ok := c.racks[sp.Rack]
		if !ok {
			rack = &Rack{Name: sp.Rack, Cluster: sp.Cluster}
			c.racks[sp.Rack] = rack
			c.rackOrd = append(c.rackOrd, sp.Rack)
			sub, ok := c.subs[sp.Cluster]
			if !ok {
				sub = &SubCluster{Name: sp.Cluster}
				c.subs[sp.Cluster] = sub
				c.subOrd = append(c.subOrd, sp.Cluster)
			}
			sub.Racks = append(sub.Racks, sp.Rack)
		} else if rack.Cluster != sp.Cluster {
			return nil, fmt.Errorf("topology: rack %q claimed by sub-clusters %q and %q",
				sp.Rack, rack.Cluster, sp.Cluster)
		}
		rack.Machines = append(rack.Machines, m.ID)
	}
	return c, nil
}

// Specs captures the cluster as a FromSpecs input, in machine-ID
// order: FromSpecs(c.Specs()) rebuilds an empty copy of the same
// topology (allocations are not part of a spec).
func (c *Cluster) Specs() []MachineSpec {
	out := make([]MachineSpec, len(c.machines))
	for i, m := range c.machines {
		out[i] = MachineSpec{
			Name:     m.Name,
			Rack:     m.Rack,
			Cluster:  m.Cluster,
			Capacity: m.Capacity(),
			Down:     !m.Up(),
		}
	}
	return out
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns the machine with the given ID, or nil if out of
// range.
func (c *Cluster) Machine(id MachineID) *Machine {
	if id < 0 || int(id) >= len(c.machines) {
		return nil
	}
	return c.machines[id]
}

// Machines returns all machines in ID order.  The returned slice is
// shared; callers must not mutate it.
func (c *Cluster) Machines() []*Machine { return c.machines }

// Racks returns rack names in creation order.
func (c *Cluster) Racks() []string { return c.rackOrd }

// Rack returns the named rack, or nil.
func (c *Cluster) Rack(name string) *Rack { return c.racks[name] }

// SubClusters returns sub-cluster names in creation order.
func (c *Cluster) SubClusters() []string { return c.subOrd }

// SubCluster returns the named sub-cluster, or nil.
func (c *Cluster) SubCluster(name string) *SubCluster { return c.subs[name] }

// Span is a half-open [Lo, Hi) range of positions in a Traversal.
type Span struct{ Lo, Hi int }

// Len returns the number of positions in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Traversal fixes the canonical tier walk of the flow network —
// sub-clusters in creation order, each sub-cluster's racks in order,
// each rack's machines in order — as a flat machine sequence.  Racks
// and sub-clusters are contiguous spans of that sequence, which is
// what lets a single tournament tree over the traversal answer
// per-rack, per-sub-cluster and whole-cluster residual-capacity
// queries (internal/core's search index).
type Traversal struct {
	// Order maps position → machine, in tier walk order.
	Order []MachineID
	// Pos maps machine → position (the inverse of Order).
	Pos []int
	// RackSpan and SubSpan locate each rack / sub-cluster in Order.
	RackSpan map[string]Span
	SubSpan  map[string]Span
}

// Traverse materialises the canonical tier walk.  For clusters built
// by New and NewHeterogeneous the traversal order equals machine-ID
// order; the explicit mapping keeps index-based searchers correct for
// any hand-built topology.
func (c *Cluster) Traverse() Traversal {
	tr := Traversal{
		Order:    make([]MachineID, 0, len(c.machines)),
		Pos:      make([]int, len(c.machines)),
		RackSpan: make(map[string]Span, len(c.racks)),
		SubSpan:  make(map[string]Span, len(c.subs)),
	}
	for _, gname := range c.subOrd {
		subLo := len(tr.Order)
		for _, rname := range c.subs[gname].Racks {
			rackLo := len(tr.Order)
			for _, mid := range c.racks[rname].Machines {
				tr.Pos[mid] = len(tr.Order)
				tr.Order = append(tr.Order, mid)
			}
			tr.RackSpan[rname] = Span{Lo: rackLo, Hi: len(tr.Order)}
		}
		tr.SubSpan[gname] = Span{Lo: subLo, Hi: len(tr.Order)}
	}
	return tr
}

// Reset clears every machine's allocation.
func (c *Cluster) Reset() {
	for _, m := range c.machines {
		m.Reset()
	}
}

// DownMachines counts machines currently out of service.
func (c *Cluster) DownMachines() int {
	n := 0
	for _, m := range c.machines {
		if !m.Up() {
			n++
		}
	}
	return n
}

// UsedMachines counts machines hosting at least one container.  This
// is the num(sched) metric of Equation 10.
func (c *Cluster) UsedMachines() int {
	n := 0
	for _, m := range c.machines {
		if m.NumContainers() > 0 {
			n++
		}
	}
	return n
}

// TotalUsed sums allocated resources over all machines.
func (c *Cluster) TotalUsed() resource.Vector {
	var total resource.Vector
	for _, m := range c.machines {
		total = total.Add(m.Used())
	}
	return total
}

// TotalCapacity sums capacity over all machines.
func (c *Cluster) TotalCapacity() resource.Vector {
	var total resource.Vector
	for _, m := range c.machines {
		total = total.Add(m.Capacity())
	}
	return total
}

// UtilizationRange returns (min, mean, max) CPU utilisation over
// machines that host at least one container, the statistic plotted in
// Fig. 11.  When no machine is used, all three are zero.
func (c *Cluster) UtilizationRange() (lo, mean, hi float64) {
	used := 0
	lo = 1.0
	for _, m := range c.machines {
		if m.NumContainers() == 0 {
			continue
		}
		u := m.CPUUtilization()
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
		mean += u
		used++
	}
	if used == 0 {
		return 0, 0, 0
	}
	return lo, mean / float64(used), hi
}
