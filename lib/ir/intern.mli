(** Hash-consing uniquer tables (MLIR's [MLIRContext] uniquing).

    A table maps every constructed value of a domain to a canonical physical
    node carrying a unique integer id, so that structural equality of interned
    values collapses to pointer/id comparison. Instantiated by {!Attr} for
    the type and attribute domains. *)

type stats = {
  nodes : int;  (** distinct canonical nodes currently in the table *)
  hits : int;  (** intern calls answered by an existing node *)
  misses : int;  (** intern calls that created a new node *)
}

val add_stats : stats -> stats -> stats
(** Pointwise sum, for adding exited domains' counters to a live table's. *)

val pp_stats : Format.formatter -> stats -> unit

(** The structural identity of the interned domain. [equal]/[hash] must
    agree ([equal a b] implies [hash a = hash b]). *)
module type HASHED = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type node
  type table

  val create : ?size:int -> unit -> table

  val intern : table -> node -> node
  (** [intern tbl x] returns the canonical node structurally equal to [x],
      inserting [x] itself (with a fresh id) on first encounter. Idempotent:
      [intern tbl (intern tbl x) == intern tbl x]. *)

  val find : table -> node -> node option
  (** Like {!intern} but never inserts; counts a hit when found. *)

  val id : table -> node -> int
  (** The unique id of [x]'s canonical node, interning it if needed. Ids are
      dense, starting at 0, and never reused within a table. *)

  val canonical_id : table -> node -> int
  (** The id of [x] when [x] is itself a canonical node (one physical
      probe, no allocation; counts a hit), [-1] otherwise. *)

  val mem : table -> node -> bool
  val stats : table -> stats
end

module Make (H : HASHED) : S with type node = H.t
