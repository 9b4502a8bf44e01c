package topo

import (
	"testing"

	"repro/internal/aps"
)

func TestRingAPSLocalFailureWrapsAndSignals(t *testing.T) {
	ra := newRingAPS(3, 4, 10)
	ra.advance(1, true, false) // East incoming (from node 2) dead
	if !ra.isWrapped(West) {
		t.Fatal("East incoming failure must wrap the West outgoing span")
	}
	if ra.isWrapped(East) {
		t.Fatal("East outgoing span wrapped without cause")
	}
	k1, k2 := ra.txK(East) // long path toward node 2
	req, dest := aps.ParseK1(k1)
	if req != aps.ReqSignalFail || dest != 2 {
		t.Fatalf("long path K1 = %v dest %d, want SF dest 2", req, dest)
	}
	if int(k2>>4) != 3 || k2&k2LongPath == 0 {
		t.Fatalf("long path K2 = %#x, want src 3 + long bit", k2)
	}
	k1, k2 = ra.txK(West) // short path straight at node 2
	req, dest = aps.ParseK1(k1)
	if req != aps.ReqSignalFail || dest != 2 || k2&k2LongPath != 0 {
		t.Fatalf("short path K = %v dest %d k2 %#x", req, dest, k2)
	}
}

func TestRingAPSWTRHoldsThenReverts(t *testing.T) {
	ra := newRingAPS(3, 4, 10)
	ra.advance(1, true, false)
	if !ra.isWrapped(West) {
		t.Fatal("no wrap")
	}
	// Failure clears at tick 5: WTR runs to 15.
	for now := int64(5); now < 15; now++ {
		ra.advance(now, false, false)
		if !ra.isWrapped(West) {
			t.Fatalf("tick %d: unwrapped during WTR", now)
		}
		k1, _ := ra.txK(East)
		if req, _ := aps.ParseK1(k1); req != aps.ReqWaitToRestore {
			t.Fatalf("tick %d: long path carries %v during WTR", now, req)
		}
	}
	ra.advance(15, false, false)
	if ra.isWrapped(West) {
		t.Fatal("still wrapped after WTR expiry")
	}
	k1, _ := ra.txK(East)
	if req, _ := aps.ParseK1(k1); req != aps.ReqNoRequest {
		t.Fatalf("post-WTR long path carries %v", req)
	}
}

func TestRingAPSSecondFailureDuringWTRRearms(t *testing.T) {
	ra := newRingAPS(3, 4, 100)
	ra.advance(1, true, false)
	ra.advance(5, false, false) // WTR starts, runs to 105
	ra.advance(50, true, false) // failure returns mid-WTR
	ra.advance(60, false, false)
	// The WTR must restart from the second clear, not continue the
	// first: still wrapped well past the original expiry.
	for now := int64(61); now < 160; now++ {
		ra.advance(now, false, false)
		if !ra.isWrapped(West) {
			t.Fatalf("tick %d: WTR did not re-arm after the second SF", now)
		}
	}
	ra.advance(160, false, false)
	if ra.isWrapped(West) {
		t.Fatal("still wrapped after the re-armed WTR expired")
	}
}

func TestRingAPSFarEndWrapAndRelease(t *testing.T) {
	// Node 2's neighbour 3 reports the 2↔3 span dead via the long
	// path (arriving on node 2's East incoming).
	ra := newRingAPS(2, 4, 10)
	k1 := aps.K1(aps.ReqSignalFail, 2)
	k2 := byte(3)<<4 | k2LongPath | k2BridgedSwitched
	for now := int64(1); now < 10; now++ {
		ra.receiveK(East, k1, k2, now)
		ra.advance(now, false, false)
		if !ra.isWrapped(East) {
			t.Fatalf("tick %d: far-end SF did not wrap", now)
		}
	}
	// Source goes idle: the wrap must age out within KTTL.
	for now := int64(10); now < 10+ra.KTTL+2; now++ {
		ra.advance(now, false, false)
	}
	if ra.isWrapped(East) {
		t.Fatal("far-end wrap survived the sustain window")
	}
	// Explicit NR releases immediately (next Advance).
	ra.receiveK(East, k1, k2, 100)
	ra.advance(100, false, false)
	if !ra.isWrapped(East) {
		t.Fatal("re-wrap failed")
	}
	ra.receiveK(East, aps.K1(aps.ReqNoRequest, 2), byte(3)<<4, 101)
	ra.advance(101, false, false)
	ra.advance(102, false, false)
	if ra.isWrapped(East) {
		t.Fatal("NR from the far end did not release the wrap")
	}
}

func TestRingAPSRelaysLongPathRequests(t *testing.T) {
	// Node 0 sits between a requester (3) and its destination (2):
	// it must pass the K bytes through on the same rotation.
	ra := newRingAPS(0, 4, 10)
	k1 := aps.K1(aps.ReqSignalFail, 2)
	k2 := byte(3)<<4 | k2LongPath
	ra.receiveK(East, k1, k2, 5)
	ra.advance(5, false, false)
	g1, g2 := ra.txK(East)
	if g1 != k1 || g2 != k2 {
		t.Fatalf("relay = %#x/%#x, want %#x/%#x", g1, g2, k1, k2)
	}
	// And it learns the failed span (2↔3, east index 2) for squelch
	// computation.
	if len(ra.failed) != 1 || ra.failed[2] <= 5 {
		t.Fatalf("learned failed spans = %v, want span 2 alone, still current", ra.failed)
	}
	// After the relay ages out, idle resumes.
	ra.advance(5+ra.KTTL+1, false, false)
	g1, _ = ra.txK(East)
	if req, _ := aps.ParseK1(g1); req != aps.ReqNoRequest {
		t.Fatalf("stale relay still transmitted: %v", req)
	}
}

func TestRingAPSReachability(t *testing.T) {
	ra := newRingAPS(1, 4, 10)
	now := int64(1)
	if !ra.reachable(0, 2, now) {
		t.Fatal("clean ring: everything reachable")
	}
	ra.markFailed(1, now) // span 1↔2
	if !ra.reachable(0, 2, now) {
		t.Fatal("single failure: still reachable the long way")
	}
	ra.markFailed(2, now) // span 2↔3: node 2 isolated
	if ra.reachable(0, 2, now) {
		t.Fatal("isolated node reported reachable")
	}
	if !ra.reachable(3, 0, now) || !ra.reachable(1, 3, now) {
		t.Fatal("surviving arc reported unreachable")
	}
	// Expiry restores reachability.
	if !ra.reachable(0, 2, now+ra.KTTL+1) {
		t.Fatal("expired failure still blocks reachability")
	}
}
