package main

import (
	"math/rand/v2"
	"slices"
)

// Every input is generated here, up front, from the run's seed: the timed
// loops only index these arrays (cyclically, opsPerClient is a power of two),
// so the measured path holds no PRNG, no allocation and no shared write.
// Each client draws from its own PCG stream, so a client's ops do not depend
// on how many clients there are.
const opsPerClient = 1 << 16

func newRNG(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(client)+1))
}

// leg is one unconditional balance change of a transfer.
type leg struct {
	Acct  int32
	Delta int32
}

// transferOps is a client's transfer stream: op i is Legs[i*Per:(i+1)*Per],
// its legs in ascending account order (a fixed global lock order, so no two
// transfers can deadlock) and its deltas summing to zero (so the bank's
// total is conserved whatever the interleaving).
type transferOps struct {
	Per  int
	Legs []leg
	// DeclineEvery > 0 marks every DeclineEvery-th transfer declined: its
	// body performs every leg and then refuses, so the legs are undone.
	DeclineEvery int
}

func (t *transferOps) declined(seq int) bool {
	return t.DeclineEvery > 0 && seq%t.DeclineEvery == t.DeclineEvery-1
}

func (t *transferOps) op(seq int) []leg {
	i := (seq & (opsPerClient - 1)) * t.Per
	return t.Legs[i : i+t.Per]
}

// genTransfers draws opsPerClient transfers of per legs each. A transfer
// stays inside one group of group consecutive accounts, the group chosen
// uniformly and the per distinct accounts inside it uniformly (a partial
// shuffle of a permutation kept across transfers): group == accounts is the
// plain bank, group < accounts keeps each transfer inside one branch
// (readmix_snap).
func genTransfers(seed uint64, client, accounts, group, per int) *transferOps {
	r := newRNG(seed, client)
	t := &transferOps{Per: per, Legs: make([]leg, opsPerClient*per)}
	perm := make([]int32, group)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 0; i < opsPerClient; i++ {
		legs := t.Legs[i*per : (i+1)*per]
		base := int32(r.IntN(accounts/group) * group)
		for j := range legs {
			k := j + r.IntN(group-j)
			perm[j], perm[k] = perm[k], perm[j]
			legs[j].Acct = base + perm[j]
		}
		slices.SortFunc(legs, func(x, y leg) int { return int(x.Acct - y.Acct) })
		var sum int32
		for j := range legs[:per-1] {
			d := int32(r.IntN(200)) - 100
			legs[j].Delta = d
			sum += d
		}
		legs[per-1].Delta = -sum
	}
	return t
}

// genBranches draws the branch each read-only transaction scans.
func genBranches(seed uint64, client, branches int) []int32 {
	r := newRNG(seed, client)
	out := make([]int32, opsPerClient)
	for i := range out {
		out[i] = int32(r.IntN(branches))
	}
	return out
}

// Warehouse op kinds, drawn 70/20/10.
const (
	whOrder uint8 = iota
	whRestock
	whAudit
)

// whOp is one warehouse transaction. An order looks up the whBand products
// starting at Product in the price index and buys the Pick-th; a restock adds
// Qty units of Product.
type whOp struct {
	Kind    uint8
	Pick    uint8
	Product int32
	Qty     int32
}

const whBand = 8

func genWarehouse(seed uint64, client, products int) []whOp {
	r := newRNG(seed, client)
	out := make([]whOp, opsPerClient)
	for i := range out {
		switch p := r.IntN(10); {
		case p < 7:
			out[i] = whOp{Kind: whOrder, Pick: uint8(r.IntN(whBand)), Product: int32(r.IntN(products - whBand + 1))}
		case p < 9:
			out[i] = whOp{Kind: whRestock, Product: int32(r.IntN(products)), Qty: int32(1 + r.IntN(13))}
		default:
			out[i] = whOp{Kind: whAudit}
		}
	}
	return out
}

// spanOp moves Amt from account From on System 0 to account To on System 1.
type spanOp struct {
	From, To int32
	Amt      int32
}

func genSpans(seed uint64, client, accounts int) []spanOp {
	r := newRNG(seed, client)
	out := make([]spanOp, opsPerClient)
	for i := range out {
		out[i] = spanOp{From: int32(r.IntN(accounts)), To: int32(r.IntN(accounts)), Amt: int32(1 + r.IntN(100))}
	}
	return out
}
