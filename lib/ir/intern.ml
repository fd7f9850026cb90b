(** Hash-consing uniquer tables.

    MLIR's [MLIRContext] uniques every type and attribute it creates so that
    equality is pointer comparison and re-construction of an existing node is
    a table hit. This module provides the same mechanism for our runtime:
    a {!Make}-generated table maps every constructed value to a canonical
    physical node carrying a unique integer id.

    The table is strong (nodes live as long as the process, like MLIR's
    context-owned storage): the attribute population of a compilation session
    is small and heavily shared, so reclaiming unused nodes is not worth the
    weak-pointer bookkeeping.

    Instantiated by {!Attr} for the type and attribute domains; the counters
    back the uniquing statistics reported through {!Context}. *)

type stats = {
  nodes : int;  (** distinct canonical nodes currently in the table *)
  hits : int;  (** intern calls answered by an existing node *)
  misses : int;  (** intern calls that created a new node *)
}

let hit_rate { hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

(* Pointwise sum, for adding exited domains' counters to a live table's. *)
let add_stats a b =
  { nodes = a.nodes + b.nodes; hits = a.hits + b.hits;
    misses = a.misses + b.misses }

let pp_stats ppf s =
  Fmt.pf ppf "%d nodes, %d hits / %d misses (%.1f%% hit rate)" s.nodes s.hits
    s.misses
    (100. *. hit_rate s)

(** The structural identity of the interned domain. [equal]/[hash] must
    agree ([equal a b] implies [hash a = hash b]); both may assume nothing
    about prior interning of sub-terms. *)
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
      dense, starting at 0, and never reused within a table. When [x] is
      itself canonical (the common case: every constructor interns), the
      lookup is O(1) via a physical-identity side table rather than a
      structural re-hash of the whole node. *)

  val canonical_id : table -> node -> int
  (** The id of [x] when [x] is itself a canonical node (one physical
      probe, no allocation; counts a hit), [-1] otherwise. *)

  val mem : table -> node -> bool

  val stats : table -> stats

  val clear : table -> unit
  (** Drop all nodes and reset counters. Canonical nodes handed out earlier
      keep working as plain values but lose their identity guarantee; only
      meant for tests and benchmarks. *)
end

module Make (H : HASHED) : S with type node = H.t = struct
  type node = H.t

  module Tbl = Hashtbl.Make (H)

  (* Physical-identity side table over canonical nodes. The depth-limited
     [Hashtbl.hash] only picks a bucket (O(1) even on huge trees); [(==)]
     decides membership, which is sound because only canonical nodes are
     ever inserted and each one is inserted exactly once. This is what makes
     [id] O(1) on an already-interned node instead of a full structural
     re-hash — the property the verification cache's "dense key" relies on. *)
  module Phys = Hashtbl.Make (struct
    type t = H.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type table = {
    tbl : (node * int) Tbl.t;
    phys : int Phys.t;  (** canonical node ↦ id *)
    mutable next_id : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(size = 1024) () =
    {
      tbl = Tbl.create size;
      phys = Phys.create size;
      next_id = 0;
      hits = 0;
      misses = 0;
    }

  let insert t x =
    let id = t.next_id in
    t.misses <- t.misses + 1;
    Tbl.add t.tbl x (x, id);
    Phys.add t.phys x id;
    t.next_id <- t.next_id + 1;
    id

  let intern t x =
    if Phys.mem t.phys x then begin
      t.hits <- t.hits + 1;
      x
    end
    else
      match Tbl.find_opt t.tbl x with
      | Some (canonical, _) ->
          t.hits <- t.hits + 1;
          canonical
      | None ->
          ignore (insert t x);
          x

  let find t x =
    if Phys.mem t.phys x then begin
      t.hits <- t.hits + 1;
      Some x
    end
    else
      match Tbl.find_opt t.tbl x with
      | Some (canonical, _) ->
          t.hits <- t.hits + 1;
          Some canonical
      | None -> None

  let canonical_id t x =
    match Phys.find t.phys x with
    | id ->
        t.hits <- t.hits + 1;
        id
    | exception Not_found -> -1

  let id t x =
    match canonical_id t x with
    | -1 -> (
        match Tbl.find_opt t.tbl x with
        | Some (_, id) ->
            t.hits <- t.hits + 1;
            id
        | None -> insert t x)
    | id -> id

  let mem t x = Phys.mem t.phys x || Tbl.mem t.tbl x

  let stats t = { nodes = Tbl.length t.tbl; hits = t.hits; misses = t.misses }

  let clear t =
    Tbl.reset t.tbl;
    Phys.reset t.phys;
    t.next_id <- 0;
    t.hits <- 0;
    t.misses <- 0
end
