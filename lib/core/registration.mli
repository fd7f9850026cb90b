(** Dynamic dialect registration: resolved IRDL dialects into a live
    {!Irdl_ir.Context.t}. Every registered definition is a closure over the
    resolved constraints — the generated verifiers of the paper's Listing 2
    — with no code generation involved (paper §3). *)

open Irdl_support
open Irdl_ir

val assign_slots :
  what:string -> seg_attr:string -> op:Graph.op -> Resolve.slot list ->
  'a list -> ('a list list, Diag.t) result
(** Split values across operand/result slots, honouring variadic/optional
    slots and, with several variadic groups, the
    [operandSegmentSizes]/[resultSegmentSizes] attribute (paper §4.6).
    Exposed for testing and tooling. *)

val register_collect :
  ?native:Native.t -> Context.t -> Resolve.dialect -> Diag.t list
(** Register a resolved dialect, accumulating one error per definition that
    failed (duplicate registration, malformed declarative format) while all
    the others are registered. Each registered verifier checks the resolved
    constraints with {!Constraint_expr.verify}: there is one constraint
    engine, and nothing is lowered at registration. Declarative formats are
    compiled eagerly so malformed specs fail at registration, not first
    use. *)

val register :
  ?native:Native.t -> Context.t -> Resolve.dialect -> (unit, Diag.t) result
(** Like {!register_collect}, reporting only the first error. *)
