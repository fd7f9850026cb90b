(** The mutable SSA IR object graph: values, operations, blocks and regions
    (MLIR's object model, paper §2).

    Operations are extensible: [op_name] is a plain ["dialect.mnemonic"]
    string and all structural fields are generic — the property IRDL relies
    on to register dialects at runtime without code generation.

    The storage layout is MLIR's million-op design: operations and blocks
    are nodes of intrusive doubly-linked lists (O(1) insertion and removal
    anywhere), operands/results/block arguments are arrays (O(1) indexed
    access), and every value heads an intrusive chain of its {!use}s, making
    replace-all-uses and has-uses proportional to the use count rather than
    to any enclosing scope. The intrusive link fields are exposed for
    in-library traversals; mutate the structure only through the module
    operations below, which maintain the invariants checked by
    {!check_invariants}. *)

type value = {
  v_id : int;
  mutable v_ty : Attr.ty;
  mutable v_def : value_def;
  mutable v_first_use : use option;
      (** Head of the intrusive chain of operand slots using this value. *)
}

and value_def =
  | Op_result of { op : op; index : int }
  | Block_arg of { block : block; index : int }
  | Forward_ref of string
      (** A use seen before its definition while parsing; patched to a real
          definition when the defining operation is parsed. *)
  | Released
      (** The defining operation was {!release}d by a streaming consumer:
          the value keeps its identity and type for later uses but no
          longer retains the defining subtree. *)

and use = {
  u_owner : op;  (** The operation owning the operand slot. *)
  u_index : int;  (** The operand index within [u_owner]. *)
  mutable u_value : value;
  mutable u_prev : use option;
  mutable u_next : use option;
}

and op = {
  op_id : int;
  op_name : string;  (** Fully qualified, e.g. ["cmath.mul"]. *)
  mutable op_sig : op_sig;
      (** Its signature's entry, which also holds its name's handle; the
          signature is trusted only after {!Op.has_sig}. *)
  mutable op_operands : use array;
  mutable op_results : value array;
  mutable attrs : (string * Attr.t) list;
  mutable regions : region list;
  mutable successors : block list;
  mutable op_parent : block option;
  mutable op_prev : op option;
  mutable op_next : op option;
  mutable op_order : int;
      (** Block-local ordering index, strictly increasing along the block.
          Maintained by the insertion primitives; compare two ops of the
          same block in O(1) via {!Op.is_before_in_block}. *)
  op_loc : Irdl_support.Loc.t;
}

and block = {
  blk_id : int;
  mutable blk_args : value array;
  mutable blk_first : op option;
  mutable blk_last : op option;
  mutable blk_num_ops : int;
  mutable blk_parent : region option;
  mutable blk_prev : block option;
  mutable blk_next : block option;
}

and region = {
  reg_id : int;
  mutable reg_first : block option;
  mutable reg_last : block option;
  mutable reg_num_blocks : int;
  mutable reg_parent : op option;
}

and op_handle = {
  oh_key : int;  (** The resolving shard's key; stale once it moves on. *)
  oh_def : op_def option;  (** [None]: unregistered *)
  oh_quoted : string;  (** The name as the generic form prints it. *)
}
(** An op name resolved against a context (MLIR's [OperationName]) by
    {!Context.handle}. *)

and op_sig = {
  sg_name : string;
  sg_operands : Attr.ty array;
  sg_results : Attr.ty array;
  sg_attrs : (string * Attr.t) list;
  sg_regions : Attr.ty array option list;  (** entry-block argument types *)
  sg_successors : int;
  mutable sg_ok : int;  (** key of the shard that verified it [Ok]; 0: none *)
  mutable sg_tail : string;  (** the printed tail; [""] until printed *)
  mutable sg_handle : op_handle;  (** [sg_name] as last resolved *)
  mutable sg_row : int;
      (** the row a bytecode writer last gave it, packed with the writer's
          key ([Bytecode.Write]); 0: none *)
}
(** An op signature, shared by the ops built with it
    ({!Context.memoized}). *)

and op_def = {
  od_dialect : string;
  od_name : string;  (** mnemonic, without the dialect prefix *)
  od_summary : string;
  od_is_terminator : bool;
  od_num_regions : int;
  od_verify : op -> (unit, Irdl_support.Diag.t) result;
      (** The verifier generated from the IRDL constraints. *)
  od_verify_rest : op -> (unit, Irdl_support.Diag.t) result;
      (** What [od_verify] checks beyond the op's signature, in its order:
          region block counts and terminators, then the IRDL-C++ op hooks.
          The verifier runs it instead of [od_verify] on a memo hit. *)
  od_format : Opfmt.t option;
      (** Compiled declarative format, when the op defines one. *)
}
(** A registered operation definition ({!Context.op_def}). *)

val unresolved : op_handle
(** Never valid. *)

val no_sig : op_sig
(** The signature of no op; never written. *)

val next_id : unit -> int
(** A fresh id, unique within the process and never 0. Safe to call from
    multiple domains: each domain takes ids from its own block of 1024,
    so ids are not ordered across domains. *)

module Value : sig
  type t = value

  val ty : t -> Attr.ty
  val id : t -> int
  val equal : t -> t -> bool
  val defining_op : t -> op option
  val owner_block : t -> block option

  val forward_ref : string -> t
  (** A placeholder for a use seen before its definition (IR parsing);
      carries [Attr.none] as its type until patched. *)

  val has_uses : t -> bool
  (** O(1): is the use chain non-empty? *)

  val num_uses : t -> int
  val iter_uses : t -> f:(use -> unit) -> unit
  (** Iterate the use chain; [f] may relink or remove the current use. *)

  val uses : t -> (op * int) list
  (** The (owner, operand index) pairs using this value. Order carries no
      semantic meaning. *)

  val replace_all_uses : from:t -> to_:t -> unit
  (** Re-home every use of [from] onto [to_]. O(uses of [from]),
      independent of any enclosing scope. *)

  val pp : Format.formatter -> t -> unit
end

module Op : sig
  type t = op

  val create :
    ?operands:value list -> ?result_tys:Attr.ty list ->
    ?attrs:(string * Attr.t) list -> ?regions:region list ->
    ?successors:block list -> ?loc:Irdl_support.Loc.t -> string -> t
  (** Create an operation; fresh result values are wired to it, operand use
      chains are linked, and the given regions are attached (they must be
      detached). *)

  val create_prebuilt :
    operands:value array -> result_tys:Attr.ty array ->
    attrs:(string * Attr.t) list -> regions:region list ->
    successors:block list -> loc:Irdl_support.Loc.t -> entry:op_sig ->
    string -> t
  (** {!create} for deserializers. The operand values and result types
      arrive as arrays (read, not retained) and are trusted as given: the
      caller must pass canonical (interned) types and attribute values, as
      the bytecode reader's table pass guarantees, and an [entry] with the
      op's name ({!no_sig} if the caller sets one right after). Skips
      {!create}'s defensive re-interning and intermediate lists — the
      difference is measurable when materializing 10^6 ops. *)

  val signature : t -> op_sig
  (** A fresh entry holding the op's signature. *)

  val has_sig : t -> op_sig -> bool
  (** Does the entry hold the op's name and current signature? Compares
      types and attributes with [==]; allocates nothing. *)

  val name : t -> string
  val dialect : t -> string
  val mnemonic : t -> string
  val operand : t -> int -> value
  val result : t -> int -> value
  val num_operands : t -> int
  val num_results : t -> int

  val operands : t -> value list
  (** The operand values as a fresh list (O(n) materialization; prefer
      {!operand}/{!iter_operands} on hot paths). *)

  val results : t -> value list
  val operand_tys : t -> Attr.ty list
  val result_tys : t -> Attr.ty list
  val iter_operands : t -> f:(value -> unit) -> unit
  val iteri_operands : t -> f:(int -> value -> unit) -> unit
  val iter_results : t -> f:(value -> unit) -> unit
  val attr : t -> string -> Attr.t option
  val set_attr : t -> string -> Attr.t -> unit
  val remove_attr : t -> string -> unit

  val set_operand : t -> int -> value -> unit
  (** Replace operand [i], maintaining both values' use chains. *)

  val set_operands : t -> value list -> unit
  (** Replace the whole operand list, maintaining use chains. *)

  val parent_op : t -> t option
  val prev_op : t -> t option
  val next_op : t -> t option

  val is_before_in_block : t -> t -> bool
  (** Does the first op come strictly before the second in their shared
      block? O(1). Raises [Invalid_argument] if they are not block
      siblings. *)

  val walk : t -> f:(t -> unit) -> unit
  (** Pre-order walk over the op and everything nested in its regions.
      Stack-safe: uses an explicit worklist, so region nesting depth is
      bounded only by memory. *)

  val is_ancestor : ancestor:t -> t -> bool
  (** Is the op nested (strictly or not) inside [ancestor]? *)
end

module Block : sig
  type t = block

  val create : ?arg_tys:Attr.ty list -> unit -> t
  val args : t -> value list
  val arg : t -> int -> value
  val num_args : t -> int

  val ops : t -> op list
  (** The block's operations as a fresh list (O(n) materialization; prefer
      {!iter_ops} on hot paths). *)

  val iter_ops : t -> f:(op -> unit) -> unit
  (** Iterate in program order; [f] may detach the current op. *)

  val num_ops : t -> int
  (** O(1). *)

  val first_op : t -> op option
  val last_op : t -> op option
  val add_arg : t -> Attr.ty -> value
  val append : t -> op -> unit
  val prepend : t -> op -> unit
  val insert_before : t -> anchor:op -> op -> unit
  val insert_after : t -> anchor:op -> op -> unit
  val remove : t -> op -> unit
  val terminator : t -> op option
  (** The last operation of the block, if any. O(1). *)
end

module Region : sig
  type t = region

  val create : ?blocks:block list -> unit -> t
  val add_block : t -> block -> unit
  val entry : t -> block option
  val blocks : t -> block list
  val iter_blocks : t -> f:(block -> unit) -> unit
  val num_blocks : t -> int
end

val detach : op -> unit
(** Remove an op from its parent block (no-op when detached). The op keeps
    its operands and use links: use {!erase} when it is going away. *)

val erase : op -> unit
(** Detach [op] and unlink every operand slot of [op] and of all operations
    nested inside it from the use chains. Callers must have rewired (or
    checked) uses of [op]'s own results first. *)

val release : op -> unit
(** Like {!erase}, but for a streaming consumer that is done with [op] and
    wants its memory back while later operations may still name its
    results: every value defined in the subtree (results and block
    arguments at every nesting level) is marked {!Released} — keeping its
    identity and type for later uses and type checks — and stops retaining
    the defining subtree, so the operation tree becomes garbage as soon as
    the caller drops its reference. The workhorse of
    {!Parser.Stream}-driven pipelines. *)

val replace_uses_in : op -> from:value -> to_:value -> unit
(** Replace every use of [from] by [to_] in operations nested inside the
    scope op (inclusive). Walks [from]'s use chain, not the scope. For
    unscoped replacement prefer {!Value.replace_all_uses}. *)

val has_uses_in : op -> value -> bool
(** Does any operation nested in the scope use the value? Walks the value's
    use chain, not the scope. O(1) when unused. *)

val check_invariants : op -> (unit, string) result
(** Verify every structural invariant of the intrusive representation over
    the op's subtree: parent pointers, link and count integrity, strictly
    increasing order indices, result/argument back-pointers, and operand
    slot ↔ use chain agreement. For tests and debugging. *)
