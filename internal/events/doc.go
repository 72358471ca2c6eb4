// Package events defines the event structures of the "Herding cats"
// framework (Sec. 4–5 of the paper): memory, register, branch and fence
// events; candidate executions (E, po, rf, co), each a Skeleton the chosen
// traces fix (events, po, iico, rf-reg) and the rf and co chosen over it;
// and the derived relations (fr, po-loc, internal/external splits, fence
// relations, and the dependency relations addr, data, ctrl, ctrl+cfence
// of Fig. 22, computed from register-level data flow rather than
// annotations).
//
// Glossary of relations (the paper's Tab. II), with the field or method of
// Execution that carries each (the skeleton's ones read through the
// Execution). The architecture's relations are the let bindings of a cat
// model (internal/cat/catfiles), which the compiled
// evaluator hands out by name (cat.Compiled.Reader):
//
//	notation    name                      nature        carried by
//	po          program order             execution     Execution.PO
//	rf          read-from                 execution     Execution.RF / MemRF
//	co          coherence                 execution     Execution.CO
//	ppo         preserved program order   architecture  cat binding ppo
//	ffence/lwf  full/lightweight fence    architecture  Execution.Fences(kind)
//	cfence      control fence             architecture  Execution.CtrlCfence
//	prop        propagation               architecture  cat binding prop
//	po-loc      po to the same location   derived       Execution.POLoc
//	com         co ∪ rf ∪ fr              derived       Execution.Com
//	fr          from-read                 derived       Execution.FR
//	hb          ppo ∪ fences ∪ rfe        derived       cat binding hb
//	rdw         read different writes     derived       cat binding rdw
//	detour      detour                    derived       cat binding detour
//	addr/data   address/data dependency   derived       Execution.Addr / Data
//	ctrl        control dependency        derived       Execution.Ctrl
//	ctrl+cfence control + control fence   derived       Execution.CtrlCfence
//
// Internal/external splits (rfi/rfe, coi/coe, fri/fre) live in the
// eponymous fields; "internal" means both events belong to one thread.
package events
