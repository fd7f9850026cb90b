(** SSA dominance checking (paper §2): every use must be dominated by its
    definition — textual order within a block, CFG dominance across blocks
    (per region, entry = first block), and enclosing-region visibility
    across regions.

    Kept separate from {!Verifier} because the textual format deliberately
    allows forward references while parsing; dominance is checked on demand
    (e.g. [irdl-opt --pass-pipeline verify-dominance]). *)

open Irdl_support

type t
(** Cached per-region dominator trees. *)

val create : unit -> t

val value_dominates : t -> Graph.value -> Graph.op -> bool
(** Does the value properly dominate (is it visible at) the use in the op? *)

val verify : Graph.op -> (unit, Diag.t) result
(** Check SSA dominance for every use inside [scope] (exclusive of the
    scope op's own operands). *)
