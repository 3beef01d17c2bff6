// Package checkpoint implements the hierarchical checkpoint management of
// Section 5.3: a partition tree over the paged service state with
// incrementally-maintained digests, copy-on-write logical snapshots, and the
// lookups the state-transfer and state-checking protocols need.
//
// The tree has a configurable fan-out; leaves are pages. Page digests are
// H(index, lm, value) where lm is the checkpoint at whose epoch the page
// last changed; an interior partition's digest is H(level, index, sum) where
// sum is the modular (AdHash) sum of its children's digests. This makes the
// cost of taking a checkpoint proportional to the number of pages modified
// since the previous one — the property measured in Table 8.12. (We deviate
// from the thesis in one detail: interior digests omit the partition's own
// lm so a fetching replica can rebuild the tree from leaf lm values alone;
// lm is still tracked and shipped in meta-data messages as a freshness
// hint.)
package checkpoint

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// NodeInfo describes one partition at some checkpoint.
type NodeInfo struct {
	LastMod message.Seq
	Digest  crypto.Digest
	Sum     crypto.Incr // interior nodes only: sum of child digests
}

type nodeKey struct {
	level int
	index int
}

// Snapshot is one logical copy of the state: the digest tree position and
// the copy-on-write page overlays needed to read the state as of Seq.
type Snapshot struct {
	Seq   message.Seq
	Root  crypto.Digest
	Extra []byte // serialized reply cache captured with the checkpoint

	// pages[p] is the content of page p at this checkpoint; present iff the
	// page changed after this checkpoint and before the next one.
	pages map[int][]byte
	// nodes[k] is the tree info of partition k at this checkpoint, present
	// under the same condition.
	nodes map[nodeKey]NodeInfo
}

// Manager owns the live partition tree and the chain of snapshots for one
// replica. Like the Region it digests, it belongs to the replica's event
// loop.
//
// bftlint:owner=eventloop
type Manager struct {
	region *statemachine.Region
	fanout int
	levels int   // number of levels; level levels-1 is the leaf level
	width  []int // nodes per level

	live  [][]NodeInfo
	snaps []*Snapshot // ascending Seq

	// stats
	PagesCopied   uint64 // copy-on-write copies performed
	PagesDigested uint64 // page digests recomputed at checkpoints
}

// LeafDigest computes the digest of a page.
func LeafDigest(index int, lm message.Seq, content []byte) crypto.Digest {
	return crypto.DigestOfU64([]uint64{uint64(index), uint64(lm)}, content)
}

// InteriorDigest computes the digest of an interior partition from the
// modular sum of its children's digests.
func InteriorDigest(level, index int, sum crypto.Incr) crypto.Digest {
	d := sum.Digest()
	return crypto.DigestOfU64([]uint64{uint64(level), uint64(index)}, d[:])
}

// CombinedDigest folds the partition-tree root and the checkpointed
// reply-cache blob into the digest carried by checkpoint messages — the
// one value every replica must agree on for a checkpoint to stabilize.
func CombinedDigest(root crypto.Digest, extra []byte) crypto.Digest {
	return crypto.DigestOf(root[:], extra)
}

// NewManager builds the tree for region with the given fan-out and takes the
// initial checkpoint at sequence number 0.
func NewManager(region *statemachine.Region, fanout int) *Manager {
	if fanout < 2 {
		panic("checkpoint: fanout must be >= 2")
	}
	m := &Manager{region: region, fanout: fanout}

	// Compute level widths from leaves up, then reverse so level 0 is root.
	widths := []int{region.NumPages()}
	for widths[len(widths)-1] > 1 {
		w := (widths[len(widths)-1] + fanout - 1) / fanout
		widths = append(widths, w)
	}
	m.levels = len(widths)
	m.width = make([]int, m.levels)
	for i := range widths {
		m.width[m.levels-1-i] = widths[i]
	}

	m.live = make([][]NodeInfo, m.levels)
	for l := range m.live {
		m.live[l] = make([]NodeInfo, m.width[l])
	}

	// Initial digests: every page at lm 0.
	leaf := m.levels - 1
	for p := 0; p < region.NumPages(); p++ {
		m.live[leaf][p] = NodeInfo{LastMod: 0, Digest: LeafDigest(p, 0, region.Page(p))}
	}
	for l := leaf - 1; l >= 0; l-- {
		for i := 0; i < m.width[l]; i++ {
			var sum crypto.Incr
			for c := i * fanout; c < min((i+1)*fanout, m.width[l+1]); c++ {
				sum = sum.Add(crypto.IncrOf(m.live[l+1][c].Digest))
			}
			m.live[l][i] = NodeInfo{LastMod: 0, Sum: sum, Digest: InteriorDigest(l, i, sum)}
		}
	}

	m.snaps = []*Snapshot{{
		Seq:   0,
		Root:  m.live[0][0].Digest,
		pages: make(map[int][]byte),
		nodes: make(map[nodeKey]NodeInfo),
	}}

	region.SetOnModify(m.beforePageWrite)
	return m
}

// Levels returns the number of tree levels (root = level 0).
func (m *Manager) Levels() int { return m.levels }

// Fanout returns the tree fan-out.
func (m *Manager) Fanout() int { return m.fanout }

// Width returns the number of partitions at a level.
func (m *Manager) Width(level int) int {
	if level < 0 || level >= m.levels {
		return 0
	}
	return m.width[level]
}

// RootDigest returns the digest of the live tree root.
func (m *Manager) RootDigest() crypto.Digest { return m.live[0][0].Digest }

// beforePageWrite is the copy-on-write hook: the first time a page is
// modified after the newest checkpoint, its pre-image is stashed in that
// checkpoint's overlay.
func (m *Manager) beforePageWrite(p int) {
	if len(m.snaps) == 0 {
		return
	}
	newest := m.snaps[len(m.snaps)-1]
	if _, ok := newest.pages[p]; ok {
		return
	}
	cp := make([]byte, m.region.PageSize())
	copy(cp, m.region.Page(p))
	newest.pages[p] = cp
	m.PagesCopied++
}

// stashNode preserves the pre-image of a tree node in the newest snapshot
// before the live tree overwrites it.
func (m *Manager) stashNode(level, index int, info NodeInfo) {
	if len(m.snaps) == 0 {
		return
	}
	newest := m.snaps[len(m.snaps)-1]
	k := nodeKey{level, index}
	if _, ok := newest.nodes[k]; !ok {
		newest.nodes[k] = info
	}
}

// Take creates the checkpoint for sequence number seq: it folds the dirty
// pages into the digest tree (cost proportional to the number of dirty
// pages), records the root digest, captures extra (the reply cache), and
// clears the dirty set. It returns the new snapshot.
func (m *Manager) Take(seq message.Seq, extra []byte) *Snapshot {
	dirty := m.region.DirtyPages()
	leaf := m.levels - 1

	// Update leaves.
	touchedParents := make(map[int]struct{})
	for _, p := range dirty {
		old := m.live[leaf][p]
		m.stashNode(leaf, p, old)
		nd := NodeInfo{LastMod: seq, Digest: LeafDigest(p, seq, m.region.Page(p))}
		m.PagesDigested++
		m.live[leaf][p] = nd
		if m.levels > 1 {
			parent := p / m.fanout
			m.updateParentSum(leaf-1, parent, old.Digest, nd.Digest, seq, touchedParents)
		}
	}

	// Propagate level by level toward the root.
	for l := leaf - 1; l > 0; l-- {
		next := make(map[int]struct{})
		for i := range touchedParents {
			old := m.live[l][i] // already stashed+updated sum in updateParentSum
			newDigest := InteriorDigest(l, i, old.Sum)
			if newDigest != old.Digest {
				upd := old
				upd.Digest = newDigest
				upd.LastMod = seq
				m.live[l][i] = upd
				m.updateParentSum(l-1, i/m.fanout, old.Digest, newDigest, seq, next)
			}
		}
		touchedParents = next
	}
	if m.levels > 1 {
		root := m.live[0][0]
		root.Digest = InteriorDigest(0, 0, root.Sum)
		if len(dirty) > 0 {
			root.LastMod = seq
		}
		m.live[0][0] = root
	}

	snap := &Snapshot{
		Seq:   seq,
		Root:  m.live[0][0].Digest,
		Extra: append([]byte(nil), extra...),
		pages: make(map[int][]byte),
		nodes: make(map[nodeKey]NodeInfo),
	}
	m.snaps = append(m.snaps, snap)
	m.region.ClearDirty()
	return snap
}

// updateParentSum stashes the parent's pre-image (once) and folds the child
// digest change into its sum. The parent's digest/lm are fixed up later when
// its level is processed.
func (m *Manager) updateParentSum(level, index int, oldChild, newChild crypto.Digest, seq message.Seq, touched map[int]struct{}) {
	if _, ok := touched[index]; !ok {
		m.stashNode(level, index, m.live[level][index])
		touched[index] = struct{}{}
	}
	n := m.live[level][index]
	n.Sum = n.Sum.Sub(crypto.IncrOf(oldChild)).Add(crypto.IncrOf(newChild))
	m.live[level][index] = n
}

// Snapshot returns the snapshot taken at exactly seq, if it exists.
func (m *Manager) Snapshot(seq message.Seq) (*Snapshot, bool) {
	for _, s := range m.snaps {
		if s.Seq == seq {
			return s, true
		}
	}
	return nil, false
}

// Latest returns the most recent snapshot.
func (m *Manager) Latest() *Snapshot { return m.snaps[len(m.snaps)-1] }

// Oldest returns the oldest retained snapshot.
func (m *Manager) Oldest() *Snapshot { return m.snaps[0] }

// DiscardBefore drops snapshots with Seq < seq (log truncation, §2.3.4).
// The newest snapshot is always retained — a replica that learned of a
// stable checkpoint it has not reached yet still needs a base for state
// transfer diffing.
func (m *Manager) DiscardBefore(seq message.Seq) {
	if len(m.snaps) > 0 && m.snaps[len(m.snaps)-1].Seq < seq {
		seq = m.snaps[len(m.snaps)-1].Seq
	}
	keep := m.snaps[:0]
	for _, s := range m.snaps {
		if s.Seq >= seq {
			keep = append(keep, s)
		}
	}
	// Zero the tail so discarded snapshots can be collected.
	for i := len(keep); i < len(m.snaps); i++ {
		m.snaps[i] = nil
	}
	m.snaps = keep
}

// NodeAt returns partition (level, index)'s info as of checkpoint seq.
func (m *Manager) NodeAt(seq message.Seq, level, index int) (NodeInfo, bool) {
	if level < 0 || level >= m.levels || index < 0 || index >= m.width[level] {
		return NodeInfo{}, false
	}
	k := nodeKey{level, index}
	for _, s := range m.snaps {
		if s.Seq < seq {
			continue
		}
		if info, ok := s.nodes[k]; ok {
			return info, true
		}
	}
	return m.live[level][index], true
}

// ChildrenAt returns the info of every child of (level, index) at checkpoint
// seq, in child-index order.
func (m *Manager) ChildrenAt(seq message.Seq, level, index int) ([]message.PartInfo, bool) {
	if level < 0 || level >= m.levels-1 {
		return nil, false
	}
	lo := index * m.fanout
	hi := min(lo+m.fanout, m.width[level+1])
	if lo >= hi {
		return nil, false
	}
	out := make([]message.PartInfo, 0, hi-lo)
	for c := lo; c < hi; c++ {
		info, ok := m.NodeAt(seq, level+1, c)
		if !ok {
			return nil, false
		}
		out = append(out, message.PartInfo{Index: uint64(c), LastMod: info.LastMod, Digest: info.Digest})
	}
	return out, true
}

// PageAt returns the content and lm of page p as of checkpoint seq.
func (m *Manager) PageAt(seq message.Seq, p int) ([]byte, message.Seq, bool) {
	info, ok := m.NodeAt(seq, m.levels-1, p)
	if !ok {
		return nil, 0, false
	}
	for _, s := range m.snaps {
		if s.Seq < seq {
			continue
		}
		if content, ok := s.pages[p]; ok {
			return content, info.LastMod, true
		}
	}
	return m.region.Page(p), info.LastMod, true
}

// LiveDigest returns the digest of partition (level, index) in the live
// tree — the state "now", with no snapshot overlay applied. State transfer
// diffs fetched meta-data against it to skip partitions that already match.
func (m *Manager) LiveDigest(level, index int) crypto.Digest {
	if level < 0 || level >= m.levels || index < 0 || index >= m.width[level] {
		return crypto.Digest{}
	}
	return m.live[level][index].Digest
}

// HasSnapshot reports whether checkpoint seq is retained.
func (m *Manager) HasSnapshot(seq message.Seq) bool {
	_, ok := m.Snapshot(seq)
	return ok
}

// InstallPage overwrites page p with fetched content and records its lm,
// updating the live tree incrementally. Used by state transfer (§5.3.2).
func (m *Manager) InstallPage(p int, lm message.Seq, content []byte) {
	if len(content) != m.region.PageSize() {
		panic(fmt.Sprintf("checkpoint: InstallPage content %d bytes, want %d", len(content), m.region.PageSize()))
	}
	m.region.SetPage(p, content)
	leaf := m.levels - 1
	old := m.live[leaf][p]
	nd := NodeInfo{LastMod: lm, Digest: LeafDigest(p, lm, content)}
	m.live[leaf][p] = nd
	// Propagate digest change to the root immediately.
	oldD, newD := old.Digest, nd.Digest
	for l := leaf - 1; l >= 0; l-- {
		idx := p
		for k := leaf; k > l; k-- {
			idx /= m.fanout
		}
		n := m.live[l][idx]
		n.Sum = n.Sum.Sub(crypto.IncrOf(oldD)).Add(crypto.IncrOf(newD))
		if lm > n.LastMod {
			n.LastMod = lm
		}
		oldD = n.Digest
		n.Digest = InteriorDigest(l, idx, n.Sum)
		newD = n.Digest
		m.live[l][idx] = n
	}
}

// SealFetched finalizes a completed state transfer: the live state now
// equals checkpoint seq, so record it as a snapshot (replacing everything
// older) and clear dirty tracking.
func (m *Manager) SealFetched(seq message.Seq, extra []byte) *Snapshot {
	snap := &Snapshot{
		Seq:   seq,
		Root:  m.live[0][0].Digest,
		Extra: append([]byte(nil), extra...),
		pages: make(map[int][]byte),
		nodes: make(map[nodeKey]NodeInfo),
	}
	m.snaps = []*Snapshot{snap}
	m.region.ClearDirty()
	return snap
}

// RevertTo restores the live region and digest tree to the snapshot taken
// at seq and discards every later snapshot. It returns the snapshot's Extra
// blob (the reply cache as of that checkpoint) and false if the snapshot is
// not retained. Used when tentative executions abort at a view change
// (§5.1.2).
func (m *Manager) RevertTo(seq message.Seq) ([]byte, bool) {
	snap, ok := m.Snapshot(seq)
	if !ok {
		return nil, false
	}
	leaf := m.levels - 1
	// Restore page contents and leaf infos as of the snapshot.
	for p := 0; p < m.width[leaf]; p++ {
		info, _ := m.NodeAt(seq, leaf, p)
		content, _, _ := m.PageAt(seq, p)
		if &content[0] != &m.region.Page(p)[0] {
			copy(m.region.Page(p), content)
		}
		m.live[leaf][p] = info
	}
	// Restore interior infos as of the snapshot.
	for l := leaf - 1; l >= 0; l-- {
		for i := 0; i < m.width[l]; i++ {
			info, _ := m.NodeAt(seq, l, i)
			m.live[l][i] = info
		}
	}
	// Drop snapshots after seq; clear seq's own overlays (live == snapshot).
	keep := m.snaps[:0]
	for _, s := range m.snaps {
		if s.Seq <= seq {
			keep = append(keep, s)
		}
	}
	for i := len(keep); i < len(m.snaps); i++ {
		m.snaps[i] = nil
	}
	m.snaps = keep
	snap.pages = make(map[int][]byte)
	snap.nodes = make(map[nodeKey]NodeInfo)
	m.region.ClearDirty()
	return snap.Extra, true
}

// RecomputeFull recomputes every page digest against the live region,
// returning the pages whose stored digest does not match the recomputed one.
// This is the state-checking pass a recovering replica runs to find
// corruption (§5.3.3). Pages legitimately modified since the last checkpoint
// (still in the region's dirty set) are skipped: their digests are only
// updated when the next checkpoint is taken.
func (m *Manager) RecomputeFull() (badPages []int) {
	dirty := make(map[int]struct{})
	for _, p := range m.region.DirtyPages() {
		dirty[p] = struct{}{}
	}
	leaf := m.levels - 1
	for p := 0; p < m.width[leaf]; p++ {
		if _, ok := dirty[p]; ok {
			continue
		}
		info := m.live[leaf][p]
		want := LeafDigest(p, info.LastMod, m.region.Page(p))
		if want != info.Digest {
			badPages = append(badPages, p)
		}
	}
	return badPages
}

// VerifyTree recomputes the entire tree bottom-up and reports whether every
// stored interior digest is consistent (test/diagnostic helper).
func (m *Manager) VerifyTree() error {
	leaf := m.levels - 1
	for l := leaf - 1; l >= 0; l-- {
		for i := 0; i < m.width[l]; i++ {
			var sum crypto.Incr
			for c := i * m.fanout; c < min((i+1)*m.fanout, m.width[l+1]); c++ {
				sum = sum.Add(crypto.IncrOf(m.live[l+1][c].Digest))
			}
			if sum != m.live[l][i].Sum {
				return fmt.Errorf("checkpoint: sum mismatch at level %d index %d", l, i)
			}
			if d := InteriorDigest(l, i, sum); d != m.live[l][i].Digest {
				return fmt.Errorf("checkpoint: digest mismatch at level %d index %d", l, i)
			}
		}
	}
	return nil
}

// CorruptLivePage flips a byte of a live page *without* dirty tracking,
// simulating an attacker modifying state behind the library's back. For
// fault-injection tests only.
func (m *Manager) CorruptLivePage(p int) {
	m.region.Page(p)[0] ^= 0xFF
}

// SnapCount returns the number of retained snapshots.
func (m *Manager) SnapCount() int { return len(m.snaps) }
