// Package catalog holds the paper's named litmus tests (Tab. III and the
// figures of Sec. 4, 6 and 8) as litmus sources, together with the verdict
// each model is expected to give. The verdicts come straight from the
// paper's figure captions ("allowed"/"forbidden") and from Sec. 8's
// model-comparison discussion; TestFigureVerdicts in package models asserts
// them, which is our reproduction of the paper's figure-level claims.
package catalog

import "herdcats/internal/litmus"

// Entry is one named test with its expected per-model verdicts.
type Entry struct {
	Name   string
	Source string
	// Expect maps a model name to whether the test's final condition is
	// observable (true = the behaviour is allowed by that model).
	// Models not listed are not asserted for this test.
	Expect map[string]bool
	// Figure references the paper figure or table the test comes from.
	Figure string
}

// Test parses the entry's source.
func (e Entry) Test() *litmus.Test { return litmus.MustParse(e.Source) }

// ByName returns the entry with the given name.
func ByName(name string) (Entry, bool) {
	for _, e := range Tests() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Model name constants: the names the builtin cat models declare.
const (
	mSC       = "SC"
	mTSO      = "TSO"
	mCpp      = "C++ R-A"
	mPower    = "Power"
	mPowerARM = "Power-ARM"
	mARM      = "ARM"
	mARMllh   = "ARM llh"
)

func all(v bool) map[string]bool {
	return map[string]bool{
		mSC: v, mTSO: v, mCpp: v, mPower: v, mPowerARM: v, mARM: v, mARMllh: v,
	}
}

// Tests returns the full catalogue.
func Tests() []Entry {
	return []Entry{
		// ------------------------------------------------------------------
		// Fig. 6: the five SC PER LOCATION shapes, all forbidden everywhere
		// (coRR excepted on "ARM llh", which allows load-load hazards).
		{
			Name: "coWW", Figure: "Fig. 6",
			Source: `PPC coWW
{ 0:r2=x; }
 P0 ;
 li r1,1 ;
 stw r1,0(r2) ;
 li r3,2 ;
 stw r3,0(r2) ;
exists (x=1)`,
			Expect: all(false),
		},
		{
			Name: "coRW1", Figure: "Fig. 6",
			Source: `PPC coRW1
{ 0:r2=x; }
 P0 ;
 lwz r1,0(r2) ;
 li r3,1 ;
 stw r3,0(r2) ;
exists (0:r1=1)`,
			Expect: all(false),
		},
		{
			Name: "coRW2", Figure: "Fig. 6",
			Source: `PPC coRW2
{ 0:r4=x; 1:r4=x; }
 P0 | P1 ;
 lwz r1,0(r4) | li r1,2 ;
 li r2,1 | stw r1,0(r4) ;
 stw r2,0(r4) | ;
exists (0:r1=2 /\ x=2)`,
			Expect: all(false),
		},
		{
			Name: "coWR", Figure: "Fig. 6",
			Source: `PPC coWR
{ 0:r3=x; 1:r3=x; }
 P0 | P1 ;
 li r1,1 | li r1,2 ;
 stw r1,0(r3) | stw r1,0(r3) ;
 lwz r2,0(r3) | ;
exists (0:r2=2 /\ x=1)`,
			Expect: all(false),
		},
		{
			Name: "coRR", Figure: "Fig. 6",
			Source: `PPC coRR
{ 0:r3=x; 1:r3=x; }
 P0 | P1 ;
 lwz r1,0(r3) | li r1,1 ;
 lwz r2,0(r3) | stw r1,0(r3) ;
exists (0:r1=1 /\ 0:r2=0)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mCpp: false, mPower: false,
				mPowerARM: false, mARM: false, mARMllh: true,
			},
		},

		// ------------------------------------------------------------------
		// Fig. 7: load buffering.
		{
			Name: "lb", Figure: "Fig. 7",
			Source: `PPC lb
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 li r5,1 | li r5,1 ;
 stw r5,0(r2) | stw r5,0(r2) ;
exists (0:r4=1 /\ 1:r4=1)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mPower: true,
				mPowerARM: true, mARM: true, mARMllh: true,
			},
		},
		{
			Name: "lb+addrs", Figure: "Fig. 7",
			Source: `PPC lb+addrs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 xor r5,r4,r4 | xor r5,r4,r4 ;
 li r6,1 | li r6,1 ;
 stwx r6,r5,r2 | stwx r6,r5,r2 ;
exists (0:r4=1 /\ 1:r4=1)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mPower: false,
				mPowerARM: false, mARM: false, mARMllh: false,
			},
		},
		{
			Name: "lb+datas", Figure: "Fig. 7",
			Source: `PPC lb+datas
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 xor r5,r4,r4 | xor r5,r4,r4 ;
 addi r6,r5,1 | addi r6,r5,1 ;
 stw r6,0(r2) | stw r6,0(r2) ;
exists (0:r4=1 /\ 1:r4=1)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mPower: false, mARM: false,
			},
		},
		{
			Name: "lb+ctrls", Figure: "Fig. 7",
			Source: `PPC lb+ctrls
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 cmpwi r4,1 | cmpwi r4,1 ;
 bne LC00 | bne LC01 ;
 LC00: | LC01: ;
 li r5,1 | li r5,1 ;
 stw r5,0(r2) | stw r5,0(r2) ;
exists (0:r4=1 /\ 1:r4=1)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mPower: false, mARM: false,
			},
		},

		// ------------------------------------------------------------------
		// Fig. 8: message passing.
		{
			Name: "mp", Figure: "Fig. 8",
			Source: `PPC mp
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | lwz r6,0(r2) ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r6=0)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mCpp: false, mPower: true,
				mPowerARM: true, mARM: true, mARMllh: true,
			},
		},
		{
			Name: "mp+lwsync+addr", Figure: "Fig. 8",
			Source: `PPC mp+lwsync+addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | xor r6,r5,r5 ;
 lwsync | lwzx r7,r6,r3 ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r7=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "mp+addr", Figure: "Fig. 8",
			Source: `PPC mp+addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | xor r6,r5,r5 ;
 li r4,1 | lwzx r7,r6,r3 ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r7=0)`,
			Expect: map[string]bool{mPower: true, mARM: true},
		},
		{
			Name: "mp+lwsync+po", Figure: "Fig. 8",
			Source: `PPC mp+lwsync+po
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | lwz r6,0(r2) ;
 lwsync | ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r6=0)`,
			Expect: map[string]bool{mPower: true},
		},
		{
			Name: "mp+syncs", Figure: "Fig. 8",
			Source: `PPC mp+syncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | sync ;
 sync | lwz r6,0(r2) ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r6=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "mp+lwsync+ctrlisync", Figure: "Sec. 5.2.4",
			Source: `PPC mp+lwsync+ctrlisync
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | cmpwi r5,1 ;
 lwsync | bne LC00 ;
 li r4,1 | LC00: ;
 stw r4,0(r2) | isync ;
 | lwz r7,0(r3) ;
exists (1:r5=1 /\ 1:r7=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "mp+lwsync+ctrl", Figure: "Sec. 5.2.3",
			Source: `PPC mp+lwsync+ctrl
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | cmpwi r5,1 ;
 lwsync | bne LC00 ;
 li r4,1 | LC00: ;
 stw r4,0(r2) | lwz r7,0(r3) ;
exists (1:r5=1 /\ 1:r7=0)`,
			// A control dependency alone does not order read-read pairs.
			Expect: map[string]bool{mPower: true, mARM: true},
		},

		// ------------------------------------------------------------------
		// Fig. 11: write-to-read causality.
		{
			Name: "wrc", Figure: "Fig. 11",
			Source: `PPC wrc
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | lwz r4,0(r1) ;
 stw r4,0(r1) | li r5,1 | lwz r6,0(r2) ;
 | stw r5,0(r2) | ;
exists (1:r4=1 /\ 2:r4=1 /\ 2:r6=0)`,
			Expect: map[string]bool{mSC: false, mTSO: false, mPower: true, mARM: true},
		},
		{
			Name: "wrc+lwsync+addr", Figure: "Fig. 11",
			Source: `PPC wrc+lwsync+addr
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | lwz r4,0(r1) ;
 stw r4,0(r1) | lwsync | xor r5,r4,r4 ;
 | li r5,1 | lwzx r6,r5,r2 ;
 | stw r5,0(r2) | ;
exists (1:r4=1 /\ 2:r4=1 /\ 2:r6=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "wrc+addrs", Figure: "Fig. 11",
			Source: `PPC wrc+addrs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | lwz r4,0(r1) ;
 stw r4,0(r1) | xor r6,r4,r4 | xor r5,r4,r4 ;
 | li r5,1 | lwzx r6,r5,r2 ;
 | stwx r5,r6,r2 | ;
exists (1:r4=1 /\ 2:r4=1 /\ 2:r6=0)`,
			// Dependencies alone are not cumulative: still allowed.
			Expect: map[string]bool{mPower: true, mARM: true},
		},

		// ------------------------------------------------------------------
		// Fig. 12: the Power ISA test.
		{
			Name: "isa2+lwsync+addrs", Figure: "Fig. 12",
			Source: `PPC isa2+lwsync+addrs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 2:r1=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | lwz r4,0(r1) ;
 stw r4,0(r1) | xor r5,r4,r4 | xor r5,r4,r4 ;
 lwsync | li r6,1 | lwzx r6,r5,r2 ;
 li r4,1 | stwx r6,r5,r2 | ;
 stw r4,0(r2) | | ;
exists (1:r4=1 /\ 2:r4=1 /\ 2:r6=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "isa2", Figure: "Fig. 12",
			Source: `PPC isa2
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 2:r1=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | lwz r4,0(r1) ;
 stw r4,0(r1) | li r6,1 | lwz r6,0(r2) ;
 li r4,1 | stw r6,0(r2) | ;
 stw r4,0(r2) | | ;
exists (1:r4=1 /\ 2:r4=1 /\ 2:r6=0)`,
			Expect: map[string]bool{mSC: false, mTSO: false, mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 13: 2+2w and w+rw+2w.
		{
			Name: "2+2w", Figure: "Fig. 13",
			Source: `PPC 2+2w
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,2 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 li r5,1 | li r5,1 ;
 stw r5,0(r2) | stw r5,0(r2) ;
exists (x=2 /\ y=2)`,
			Expect: map[string]bool{
				mSC: false, mTSO: false, mPower: true, mARM: true,
			},
		},
		{
			Name: "2+2w+lwsyncs", Figure: "Fig. 13",
			Source: `PPC 2+2w+lwsyncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,2 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwsync | lwsync ;
 li r5,1 | li r5,1 ;
 stw r5,0(r2) | stw r5,0(r2) ;
exists (x=2 /\ y=2)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "w+rw+2w+lwsyncs", Figure: "Fig. 13",
			Source: `PPC w+rw+2w+lwsyncs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,2 | lwz r4,0(r1) | li r4,2 ;
 stw r4,0(r1) | lwsync | stw r4,0(r1) ;
 | li r5,1 | lwsync ;
 | stw r5,0(r2) | li r5,1 ;
 | | stw r5,0(r2) ;
exists (1:r4=2 /\ y=2 /\ x=2)`,
			Expect: map[string]bool{mPower: false},
		},

		// ------------------------------------------------------------------
		// Fig. 14: store buffering.
		{
			Name: "sb", Figure: "Fig. 14",
			Source: `PPC sb
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,1 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwz r5,0(r2) | lwz r5,0(r2) ;
exists (0:r5=0 /\ 1:r5=0)`,
			Expect: map[string]bool{
				mSC: false, mTSO: true, mPower: true, mARM: true,
			},
		},
		{
			Name: "sb+syncs", Figure: "Fig. 14",
			Source: `PPC sb+syncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,1 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 sync | sync ;
 lwz r5,0(r2) | lwz r5,0(r2) ;
exists (0:r5=0 /\ 1:r5=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "sb+lwsyncs", Figure: "Fig. 14",
			Source: `PPC sb+lwsyncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,1 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwsync | lwsync ;
 lwz r5,0(r2) | lwz r5,0(r2) ;
exists (0:r5=0 /\ 1:r5=0)`,
			// lwsync does not order write-read pairs: still allowed.
			Expect: map[string]bool{mPower: true},
		},
		{
			Name: "sb-x86", Figure: "Fig. 14",
			Source: `X86 sb-x86
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`,
			Expect: map[string]bool{mSC: false, mTSO: true},
		},
		{
			Name: "sb+mfences", Figure: "Fig. 14",
			Source: `X86 sb+mfences
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MFENCE | MFENCE ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`,
			Expect: map[string]bool{mTSO: false},
		},

		// ------------------------------------------------------------------
		// Fig. 15: read-to-write causality.
		{
			Name: "rwc+syncs", Figure: "Fig. 15",
			Source: `PPC rwc+syncs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | sync | stw r4,0(r1) ;
 | lwz r5,0(r2) | sync ;
 | | lwz r5,0(r2) ;
exists (1:r4=1 /\ 1:r5=0 /\ 2:r5=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "rwc+lwsyncs", Figure: "Fig. 15",
			Source: `PPC rwc+lwsyncs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | lwsync | stw r4,0(r1) ;
 | lwz r5,0(r2) | lwsync ;
 | | lwz r5,0(r2) ;
exists (1:r4=1 /\ 1:r5=0 /\ 2:r5=0)`,
			// rwc needs full fences; lwsync does not suffice.
			Expect: map[string]bool{mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 16: r and s.
		{
			Name: "r+syncs", Figure: "Fig. 16",
			Source: `PPC r+syncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 sync | sync ;
 li r5,1 | lwz r5,0(r2) ;
 stw r5,0(r2) | ;
exists (y=2 /\ 1:r5=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "r+lwsync+sync", Figure: "Fig. 16",
			Source: `PPC r+lwsync+sync
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwsync | sync ;
 li r5,1 | lwz r5,0(r2) ;
 stw r5,0(r2) | ;
exists (y=2 /\ 1:r5=0)`,
			// Following the architect's intent, lwsync does not forbid r
			// (the models of Alglave 2010 and Boudol 2012 wrongly do).
			Expect: map[string]bool{mPower: true},
		},
		{
			Name: "s+lwsync+data", Figure: "Fig. 16",
			Source: `PPC s+lwsync+data
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,2 | lwz r4,0(r1) ;
 stw r4,0(r1) | xor r5,r4,r4 ;
 lwsync | addi r6,r5,1 ;
 li r5,1 | stw r6,0(r2) ;
 stw r5,0(r2) | ;
exists (1:r4=1 /\ x=2)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "s", Figure: "Fig. 16",
			Source: `PPC s
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,2 | lwz r4,0(r1) ;
 stw r4,0(r1) | li r5,1 ;
 li r5,1 | stw r5,0(r2) ;
 stw r5,0(r2) | ;
exists (1:r4=1 /\ x=2)`,
			Expect: map[string]bool{mSC: false, mTSO: false, mPower: true},
		},

		{
			Name: "s+lwsync+addr", Figure: "Fig. 16",
			Source: `PPC s+lwsync+addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,2 | lwz r4,0(r1) ;
 stw r4,0(r1) | xor r5,r4,r4 ;
 lwsync | li r6,1 ;
 li r5,1 | stwx r6,r5,r3 ;
 stw r5,0(r2) | ;
exists (1:r4=1 /\ x=2)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "r+lwsyncs", Figure: "Fig. 16",
			Source: `PPC r+lwsyncs
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,1 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 lwsync | lwsync ;
 li r5,1 | lwz r5,0(r2) ;
 stw r5,0(r2) | ;
exists (y=2 /\ 1:r5=0)`,
			// r mixes co and fr: lightweight fences cannot forbid it (the
			// T1 lwsync does not even order its write-read pair).
			Expect: map[string]bool{mPower: true},
		},
		{
			Name: "mp+eieio+addr", Figure: "Sec. 4.7",
			Source: `PPC mp+eieio+addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 li r4,1 | lwz r5,0(r1) ;
 stw r4,0(r1) | xor r6,r5,r5 ;
 eieio | lwzx r7,r6,r3 ;
 li r4,1 | ;
 stw r4,0(r2) | ;
exists (1:r5=1 /\ 1:r7=0)`,
			// eieio maintains write-write pairs: for mp it is as good as
			// lwsync (Sec. 4.7).
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "2+2w+eieios", Figure: "Sec. 4.7",
			Source: `PPC 2+2w+eieios
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 li r4,2 | li r4,2 ;
 stw r4,0(r1) | stw r4,0(r1) ;
 eieio | eieio ;
 li r5,1 | li r5,1 ;
 stw r5,0(r2) | stw r5,0(r2) ;
exists (x=2 /\ y=2)`,
			Expect: map[string]bool{mPower: false},
		},

		// ------------------------------------------------------------------
		// Fig. 19: w+rwc with eieio — allowed (eieio is not a full fence).
		{
			Name: "w+rwc+eieio+addr+sync", Figure: "Fig. 19",
			Source: `PPC w+rwc+eieio+addr+sync
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 2:r1=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | xor r5,r4,r4 | stw r4,0(r1) ;
 eieio | lwzx r6,r5,r2 | sync ;
 li r5,1 | | lwz r5,0(r2) ;
 stw r5,0(r2) | | ;
exists (1:r4=1 /\ 1:r6=0 /\ 2:r5=0)`,
			Expect: map[string]bool{mPower: true},
		},
		{
			Name: "w+rwc+sync+addr+sync", Figure: "Fig. 19",
			Source: `PPC w+rwc+sync+addr+sync
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 2:r1=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | xor r5,r4,r4 | stw r4,0(r1) ;
 sync | lwzx r6,r5,r2 | sync ;
 li r5,1 | | lwz r5,0(r2) ;
 stw r5,0(r2) | | ;
exists (1:r4=1 /\ 1:r6=0 /\ 2:r5=0)`,
			// With a real full fence where Fig. 19 had eieio, the pattern
			// is forbidden — this is what "eieio is not a full barrier"
			// means operationally.
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "w+rwc+lwsync+addr+sync", Figure: "Fig. 19",
			Source: `PPC w+rwc+lwsync+addr+sync
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 2:r1=z; 2:r2=x; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | xor r5,r4,r4 | stw r4,0(r1) ;
 lwsync | lwzx r6,r5,r2 | sync ;
 li r5,1 | | lwz r5,0(r2) ;
 stw r5,0(r2) | | ;
exists (1:r4=1 /\ 1:r6=0 /\ 2:r5=0)`,
			// Two frs in the cycle: even lwsync does not forbid it; only
			// full fences everywhere would.
			Expect: map[string]bool{mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 20: iriw.
		{
			Name: "iriw", Figure: "Fig. 20",
			Source: `PPC iriw
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 3:r1=y; 3:r2=x; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 | lwz r4,0(r1) ;
 stw r4,0(r1) | lwz r5,0(r2) | stw r4,0(r1) | lwz r5,0(r2) ;
exists (1:r4=1 /\ 1:r5=0 /\ 3:r4=1 /\ 3:r5=0)`,
			Expect: map[string]bool{mSC: false, mTSO: false, mPower: true, mARM: true},
		},
		{
			Name: "iriw+syncs", Figure: "Fig. 20",
			Source: `PPC iriw+syncs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 3:r1=y; 3:r2=x; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 | lwz r4,0(r1) ;
 stw r4,0(r1) | sync | stw r4,0(r1) | sync ;
 | lwz r5,0(r2) | | lwz r5,0(r2) ;
exists (1:r4=1 /\ 1:r5=0 /\ 3:r4=1 /\ 3:r5=0)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "iriw+lwsyncs", Figure: "Fig. 20",
			Source: `PPC iriw+lwsyncs
{ 0:r1=x; 1:r1=x; 1:r2=y; 2:r1=y; 3:r1=y; 3:r2=x; }
 P0 | P1 | P2 | P3 ;
 li r4,1 | lwz r4,0(r1) | li r4,1 | lwz r4,0(r1) ;
 stw r4,0(r1) | lwsync | stw r4,0(r1) | lwsync ;
 | lwz r5,0(r2) | | lwz r5,0(r2) ;
exists (1:r4=1 /\ 1:r5=0 /\ 3:r4=1 /\ 3:r5=0)`,
			// iriw has two frs: strong A-cumulativity (full fences) needed.
			Expect: map[string]bool{mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 29: lb+addrs+ww (forbidden) and its data variant (allowed).
		{
			Name: "lb+addrs+ww", Figure: "Fig. 29",
			Source: `PPC lb+addrs+ww
{ 0:r1=x; 0:r2=y; 0:r3=z; 1:r1=z; 1:r2=w; 1:r3=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 xor r5,r4,r4 | xor r5,r4,r4 ;
 li r6,1 | li r6,1 ;
 stwx r6,r5,r2 | stwx r6,r5,r2 ;
 li r7,1 | li r7,1 ;
 stw r7,0(r3) | stw r7,0(r3) ;
exists (0:r4=1 /\ 1:r4=1)`,
			Expect: map[string]bool{mPower: false, mARM: false},
		},
		{
			Name: "lb+datas+ww", Figure: "Fig. 29",
			Source: `PPC lb+datas+ww
{ 0:r1=x; 0:r2=y; 0:r3=z; 1:r1=z; 1:r2=w; 1:r3=x; }
 P0 | P1 ;
 lwz r4,0(r1) | lwz r4,0(r1) ;
 xor r5,r4,r4 | xor r5,r4,r4 ;
 addi r6,r5,1 | addi r6,r5,1 ;
 stw r6,0(r2) | stw r6,0(r2) ;
 li r7,1 | li r7,1 ;
 stw r7,0(r3) | stw r7,0(r3) ;
exists (0:r4=1 /\ 1:r4=1)`,
			// With data instead of address dependencies the pattern is
			// allowed (and observed on hardware, Sec. 6 end).
			Expect: map[string]bool{mPower: true, mARM: true},
		},

		// ------------------------------------------------------------------
		// Fig. 27: rdw as a load-bearing ppo ingredient — the mp reader
		// orders its accesses by reading the same location twice from
		// different external writes instead of by a dependency. Forbidden
		// by the full Power/ARM ppo; the "nodetour" static ppo (Sec. 8.2's
		// closing ablation) allows it.
		{
			Name: "mp+lwsync+rdw", Figure: "Fig. 27",
			Source: `PPC mp+lwsync+rdw
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; 2:r1=y; }
 P0 | P1 | P2 ;
 li r4,1 | lwz r5,0(r1) | li r4,2 ;
 stw r4,0(r1) | lwz r6,0(r1) | stw r4,0(r1) ;
 lwsync | xor r7,r6,r6 | ;
 li r4,1 | lwzx r8,r7,r3 | ;
 stw r4,0(r2) | | ;
exists (1:r5=1 /\ 1:r6=2 /\ 1:r8=0 /\ y=2)`,
			Expect: map[string]bool{mPower: false},
		},
		{
			Name: "mp+dmb+rdw", Figure: "Fig. 27",
			Source: `ARM mp+dmb+rdw
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; 2:r1=y; }
 P0 | P1 | P2 ;
 mov r4,#1 | ldr r5,[r1] | mov r4,#2 ;
 str r4,[r1] | ldr r6,[r1] | str r4,[r1] ;
 dmb | eor r7,r6,r6 | ;
 mov r4,#1 | ldr r8,[r7,r3] | ;
 str r4,[r2] | | ;
exists (1:r5=1 /\ 1:r6=2 /\ 1:r8=0 /\ y=2)`,
			Expect: map[string]bool{mARM: false, mPowerARM: false},
		},

		// ------------------------------------------------------------------
		// Fig. 36: the test distinguishing our Power model from the
		// PLDI 2011 machine: observed on hardware, allowed by ours.
		{
			Name: "mp+lwsync+addr-po-detour", Figure: "Fig. 36",
			Source: `PPC mp+lwsync+addr-po-detour
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 1:r3=x; 2:r1=x; }
 P0 | P1 | P2 ;
 li r4,2 | lwz r4,0(r1) | li r4,1 ;
 stw r4,0(r1) | xor r5,r4,r4 | stw r4,0(r1) ;
 lwsync | lwzx r6,r5,r2 | lwz r5,0(r1) ;
 li r5,1 | lwz r7,0(r3) | ;
 stw r5,0(r2) | | ;
exists (1:r4=1 /\ 1:r6=0 /\ 1:r7=0 /\ 2:r5=2)`,
			Expect: map[string]bool{mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 37: distinguishes our Power model from the CAV 2012
		// multi-event model (ours allows; unobserved on hardware).
		{
			Name: "mp+lwsync+addr-bigdetour-addr", Figure: "Fig. 37",
			Source: `PPC mp+lwsync+addr-bigdetour-addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 1:r3=w; 1:r4=x; 2:r1=z; 2:r2=w; }
 P0 | P1 | P2 ;
 li r5,1 | lwz r5,0(r1) | li r5,1 ;
 stw r5,0(r1) | xor r6,r5,r5 | stw r5,0(r1) ;
 lwsync | lwzx r7,r6,r2 | lwsync ;
 li r6,1 | lwz r8,0(r3) | li r6,1 ;
 stw r6,0(r2) | xor r9,r8,r8 | stw r6,0(r2) ;
 | lwzx r10,r9,r4 | ;
exists (1:r5=1 /\ 1:r7=0 /\ 1:r8=1 /\ 1:r10=0)`,
			Expect: map[string]bool{mPower: true},
		},

		// ------------------------------------------------------------------
		// Fig. 31/32/33/35: the ARM anomalies and early-commit features.
		{
			Name: "mp+dmb+addr", Figure: "Sec. 8.1.2",
			Source: `ARM mp+dmb+addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r3=x; }
 P0 | P1 ;
 mov r4,#1 | ldr r5,[r1] ;
 str r4,[r1] | eor r6,r5,r5 ;
 dmb | ldr r7,[r6,r3] ;
 mov r4,#1 | ;
 str r4,[r2] | ;
exists (1:r5=1 /\ 1:r7=0)`,
			Expect: map[string]bool{mPowerARM: false, mARM: false, mARMllh: false},
		},
		{
			Name: "mp+dmb+fri-rfi-ctrlisb", Figure: "Fig. 32",
			Source: `ARM mp+dmb+fri-rfi-ctrlisb
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 mov r3,#1 | ldr r3,[r1] ;
 str r3,[r1] | mov r4,#2 ;
 dmb | str r4,[r1] ;
 mov r4,#1 | ldr r5,[r1] ;
 str r4,[r2] | cmp r5,#2 ;
 | beq LC00 ;
 | LC00: ;
 | isb ;
 | ldr r6,[r2] ;
exists (1:r3=1 /\ 1:r5=2 /\ 1:r6=0 /\ y=2)`,
			// Forbidden by Power-ARM (po-loc ∈ cc0), allowed by the
			// proposed ARM model (early commit) — and observed on hardware.
			Expect: map[string]bool{mPowerARM: false, mARM: true, mARMllh: true},
		},
		{
			Name: "lb+data+fri-rfi-ctrl", Figure: "Fig. 33",
			Source: `ARM lb+data+fri-rfi-ctrl
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 ldr r3,[r1] | ldr r3,[r1] ;
 eor r4,r3,r3 | mov r4,#2 ;
 add r5,r4,#1 | str r4,[r1] ;
 str r5,[r2] | ldr r5,[r1] ;
 | cmp r5,#2 ;
 | beq LC00 ;
 | LC00: ;
 | mov r6,#1 ;
 | str r6,[r2] ;
exists (0:r3=1 /\ 1:r3=1 /\ 1:r5=2 /\ y=2)`,
			Expect: map[string]bool{mPowerARM: false, mARM: true},
		},
		{
			Name: "s+dmb+fri-rfi-data", Figure: "Fig. 33",
			Source: `ARM s+dmb+fri-rfi-data
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; }
 P0 | P1 ;
 mov r3,#2 | ldr r3,[r1] ;
 str r3,[r1] | mov r4,#2 ;
 dmb | str r4,[r1] ;
 mov r4,#1 | ldr r5,[r1] ;
 str r4,[r2] | eor r6,r5,r5 ;
 | add r7,r6,#1 ;
 | str r7,[r2] ;
exists (1:r3=1 /\ 1:r5=2 /\ x=2 /\ y=2)`,
			Expect: map[string]bool{mPowerARM: false, mARM: true},
		},
		{
			Name: "lb+data+data-wsi-rfi-addr", Figure: "Fig. 33",
			Source: `ARM lb+data+data-wsi-rfi-addr
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=z; 1:r3=x; }
 P0 | P1 ;
 ldr r4,[r1] | ldr r4,[r1] ;
 eor r5,r4,r4 | eor r5,r4,r4 ;
 add r6,r5,#1 | add r6,r5,#1 ;
 str r6,[r2] | str r6,[r2] ;
 | mov r7,#2 ;
 | str r7,[r2] ;
 | ldr r8,[r2] ;
 | eor r9,r8,r8 ;
 | mov r10,#1 ;
 | str r10,[r9,r3] ;
exists (0:r4=1 /\ 1:r4=1 /\ 1:r8=2 /\ z=2)`,
			Expect: map[string]bool{mPowerARM: false, mARM: true},
		},
		{
			Name: "coRSDWI", Figure: "Fig. 31",
			Source: `ARM coRSDWI
{ 0:r1=z; 1:r1=z; 1:r3=z; 2:r1=z; }
 P0 | P1 | P2 ;
 mov r2,#1 | ldr r2,[r1] | mov r2,#2 ;
 str r2,[r1] | eor r4,r2,r2 | str r2,[r1] ;
 | ldr r5,[r4,r3] | ;
exists (1:r2=2 /\ 1:r5=1 /\ z=2)`,
			// A coRR violation (the second read sees an older write): a
			// hardware bug acknowledged by ARM, allowed only under llh.
			Expect: map[string]bool{mARM: false, mPowerARM: false, mARMllh: true},
		},
		{
			Name: "moredetour0052", Figure: "Fig. 34",
			Source: `ARM moredetour0052
{ 0:r1=y; 1:r1=y; 2:r1=y; }
 P0 | P1 | P2 ;
 mov r2,#1 | ldr r2,[r1] | mov r2,#4 ;
 str r2,[r1] | mov r3,#3 | str r2,[r1] ;
 | str r3,[r1] | ;
exists (1:r2=4 /\ y=4)`,
			// The coRW2 essence of the Fig. 34 anomaly: T1 reads the final
			// value 4 before overwriting y with 3. Forbidden everywhere,
			// including under llh (it is a read-write, not read-read, hazard).
			Expect: map[string]bool{mARM: false, mARMllh: false, mPowerARM: false},
		},
		{
			Name: "mp+dmb+pos-ctrlisb+bis", Figure: "Fig. 35",
			Source: `ARM mp+dmb+pos-ctrlisb+bis
{ 0:r1=x; 0:r2=y; 1:r1=y; 1:r2=x; 2:r1=y; }
 P0 | P1 | P2 ;
 mov r3,#1 | ldr r3,[r1] | mov r3,#2 ;
 str r3,[r1] | ldr r4,[r1] | str r3,[r1] ;
 dmb | cmp r4,#1 | ;
 mov r4,#1 | beq LC00 | ;
 str r4,[r2] | LC00: | ;
 | isb | ;
 | ldr r5,[r2] | ;
exists (1:r3=1 /\ 1:r4=1 /\ 1:r5=0)`,
			// An mp+dmb+ctrlisb violation dressed with an extra read and
			// writer; uncontroversially forbidden (observed only on Tegra3,
			// classified as a hardware bug).
			Expect: map[string]bool{mARM: false, mPowerARM: false},
		},
	}
}
