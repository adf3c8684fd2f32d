package engine

import (
	"net/netip"
	"testing"
	"time"
)

// TestFlushTxCountsOnlyHandedToKernel checks the transmit accounting
// at the flush: datagrams the kernel accepted count as TxPkts, and a
// batch flushed into a closed socket — the state a Stop leaves behind
// mid-flush — counts as TxDropped, not TxPkts.
func TestFlushTxCountsOnlyHandedToKernel(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	sh := eng.shards[0]
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), sh.local.Port())
	stage := func(n int) {
		for i := 0; i < n; i++ {
			buf := sh.txBuf()
			sh.queueTx(buf[:64], dst)
		}
	}
	stage(3)
	sh.flushTx()
	if st := eng.Stats(); st.TxPkts != 3 || st.TxDropped != 0 {
		t.Fatalf("open socket: TxPkts=%d TxDropped=%d, want 3 and 0", st.TxPkts, st.TxDropped)
	}
	stage(5)
	sh.conn.Close()
	sh.flushTx()
	if st := eng.Stats(); st.TxPkts != 3 || st.TxDropped != 5 {
		t.Fatalf("closed socket: TxPkts=%d TxDropped=%d, want 3 and 5", st.TxPkts, st.TxDropped)
	}
}

// TestStopMidFlushReconciles stops a busy sender engine while its
// shard is flushing and reconciles the counters: every datagram the
// flows staged is either handed to the kernel (TxPkts) or dropped by
// the write path (TxDropped), and the receiver got no more than the
// kernel was handed — fewer only by in-network loss.
func TestStopMidFlushReconciles(t *testing.T) {
	rcv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Stop()
	snd, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Stop()
	if err := rcv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := snd.Start(); err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	for i := 0; i < 64; i++ {
		fl, err := snd.AddFlow(FlowConfig{
			Dst: rcv.Addrs()[0], CC: &FixedRateCC{Rate: 4 << 20, Win: 64 << 10}, PacketSize: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	time.Sleep(150 * time.Millisecond)
	snd.Stop()
	// Let the receiver drain what is still in its socket buffer.
	for last := int64(-1); ; time.Sleep(50 * time.Millisecond) {
		n := rcv.Stats().RxPkts
		if n == last {
			break
		}
		last = n
	}
	rcv.Stop()
	var staged int64
	for _, fl := range flows {
		staged += fl.Stats().SentPkts
	}
	st, rst := snd.Stats(), rcv.Stats()
	if st.TxPkts+st.TxDropped != staged {
		t.Fatalf("TxPkts %d + TxDropped %d != %d datagrams staged", st.TxPkts, st.TxDropped, staged)
	}
	if rst.RxPkts > st.TxPkts {
		t.Fatalf("receiver RxPkts %d > sender TxPkts %d", rst.RxPkts, st.TxPkts)
	}
	if st.TxPkts == 0 || rst.RxPkts == 0 {
		t.Fatalf("no traffic: sender %+v receiver %+v", st, rst)
	}
	t.Logf("staged %d: TxPkts %d TxDropped %d, receiver RxPkts %d", staged, st.TxPkts, st.TxDropped, rst.RxPkts)
}
