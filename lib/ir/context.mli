(** The IR context: the registry of dialects and their operation, type and
    attribute definitions. Registering an IRDL dialect populates a context
    at runtime, without code generation (paper §3).

    {b Concurrency model.} A context lives in two phases. While {e open},
    the [register_*] functions mutate the dialect maps under an internal
    registration lock; reads are only safe from the registering domain.
    {!freeze} transitions the context under the same lock — a registration
    racing a freeze either completes before it or is cleanly rejected after
    it — and from then on the dialect maps and the flat op table are
    immutable, so any number of domains may run lookups and verification
    concurrently. The verification caches live in one shard per domain
    (in [Domain.DLS], only ever touched by that domain) and post-freeze are
    lock-free. *)

open Irdl_support

module SMap : Map.S with type key = string
module Str_tbl : Hashtbl.S with type key = string

type op_def = Graph.op_def
(** A registered operation definition ({!Graph.op_def}). *)

type type_def = {
  td_dialect : string;
  td_name : string;
  td_summary : string;
  td_num_params : int;
  td_verify : Attr.t list -> (unit, Diag.t) result;
}

type attr_def = {
  ad_dialect : string;
  ad_name : string;
  ad_summary : string;
  ad_num_params : int;
  ad_verify : Attr.t list -> (unit, Diag.t) result;
}

type dialect = {
  d_name : string;
  mutable d_ops : op_def SMap.t;
  mutable d_types : type_def SMap.t;
  mutable d_attrs : attr_def SMap.t;
}

type t

val create : ?allow_unregistered:bool -> unit -> t

val allow_unregistered : t -> bool
(** When true (the default), operations/types of unknown dialects parse
    and verify structurally only. Fixed at {!create}, so the cached
    verdicts never go stale on it. *)

val qualified : dialect:string -> name:string -> string

val get_dialect : t -> string -> dialect option
val dialects : t -> dialect list

val register_dialect : t -> string -> dialect
(** Get or create the named dialect.
    @raise Irdl_support.Diag.Error_exn when the context is frozen and the
    dialect does not already exist. *)

val register_op : t -> op_def -> unit
(** @raise Irdl_support.Diag.Error_exn on duplicate registration or a
    frozen context. *)

val register_type : t -> type_def -> unit
val register_attr : t -> attr_def -> unit

(** {2 Freeze lifecycle}

    Freezing declares registration finished and unlocks concurrent use:
    after {!freeze}, the dialect maps never change, so lookups and
    verification are safe from any domain without synchronization. The
    transition itself is serialized with registration — a [register_*]
    call racing a freeze on another domain either completes before the
    flag flips or raises the frozen-context error; it can never leave a
    definition half-registered. Freezing is idempotent and one-way. *)

val freeze : t -> unit
val is_frozen : t -> bool

val lookup_op : t -> string -> op_def option
(** Look up a fully-qualified name like ["cmath.mul"]: one hash probe. *)

val lookup_type : t -> dialect:string -> name:string -> type_def option
val lookup_attr : t -> dialect:string -> name:string -> attr_def option

val op_stats : t -> int * int * int
(** Total registered (operations, types, attributes). *)

(** {2 Verification cache}

    Hash-consing gives every type and attribute a dense integer id; the
    context memoizes the result of verifying each one against the
    registered definitions, so repeat visits are O(1). Ids are domain-local
    (the uniquer is sharded per domain), so the memo table is sharded the
    same way: each domain keeps one shard in [Domain.DLS] and reads and
    writes only that one, which keeps id-keyed lookups sound and
    post-freeze operation lock-free. A shard serves one context at a time:
    used with another context, it is emptied first. Nothing else holds a
    shard, so its tables die with its domain; its counters outlive it
    (see {!stats}).

    Registering any operation, type or attribute definition flushes the
    cache (the new definition may change what verifies): it bumps the
    context's generation, and each domain's shard is emptied when it is
    next used. The cache must also be flushed manually —
    {!invalidate_verify_cache} — if verification behaviour is changed
    behind the context's back: registering new native hooks after
    verification started. *)

val cached_verify_ty :
  t ->
  int ->
  (t -> Attr.ty -> (unit, Diag.t) result) ->
  Attr.ty ->
  (unit, Diag.t) result
(** [cached_verify_ty t id verify ty] returns the memoized verification
    result for the type with dense id [id] in the calling domain's shard,
    running (and recording) [verify t ty] on the first visit. [id] must
    come from {!Attr.id_ty} evaluated on the calling domain. A hit
    allocates nothing. *)

val cached_verify_attr :
  t ->
  int ->
  (t -> Attr.t -> (unit, Diag.t) result) ->
  Attr.t ->
  (unit, Diag.t) result

(** {2 Op handles and the signature memo}

    A shard keeps at most {!memo_max_ops} {!Graph.op_handle}s and renews
    its key whenever it is emptied, so a handle made before a
    registration, or in another context or domain, is stale and resolved
    again. A name past the bound gets a handle without a memo slot.

    An op's IRDL verdict is a pure function of its signature: the operand
    and result types, the [(name, attribute)] list, the region count, each
    region's entry-block argument types (no entry block is distinct from
    zero arguments) and the successor count. A slot holds up to
    {!memo_max_sigs} signatures that verified [Ok], never evicted, each
    with the printer's rendering of it once printed. It orders itself by
    use: a hit ({!memo_mem}, {!add_tail}) moves its signature one place
    toward the front, so a hot signature is found in one or two compares.
    Signatures compare with [==] on interned nodes, so a node from another
    domain's uniquer just misses. Errors are never recorded. The memo is
    flushed with the type/attribute cache and off when it is. The handle
    given to {!memo_mem}, {!memo_add} and {!add_tail} must come from
    {!handle} or {!resolve} on the calling domain. *)

val memo_max_ops : int
val memo_max_sigs : int
(** Signatures one memo slot keeps (64). *)

val resolve : t -> Graph.op_handle -> string -> Graph.op_handle
(** [resolve t h name]: [h] if valid, else [name]'s handle — one probe of
    the shard's handles, plus one of the op table on first use. *)

val handle : t -> Graph.op -> Graph.op_handle
(** [op]'s handle, resolved again (and stored on [op]) if stale. *)

val memo_mem : t -> Graph.op_handle -> Graph.op -> bool
(** Has an op of the handle's name with [op]'s signature verified [Ok]?
    [false] with the cache off. Counts a memo hit or miss; allocates
    nothing. *)

val memo_add : t -> Graph.op_handle -> Graph.op -> unit
(** Append [op]'s signature, verified [Ok], after the slot's others
    while it holds fewer than {!memo_max_sigs}; a full slot is left as it
    is. *)

val add_tail :
  t -> Graph.op_handle -> Graph.op -> (Buffer.t -> Graph.op -> unit) ->
  Buffer.t -> unit
(** [add_tail t h op render buf] appends [render buf op], where [render]
    prints only what the op's signature determines: once per signature in
    the handle's slot, copied after that. *)

val invalidate_verify_cache : t -> unit
(** Drop all memoized verification results, in every domain's shard.
    Called automatically by the [register_*] functions; the invalidation
    counter increments only when entries were actually dropped. Not safe
    to race with active verification on other domains. *)

val set_verify_cache : t -> bool -> unit
(** Enable/disable memoization (enabled by default). Disabling flushes
    the cache and restores the pre-memoization behaviour — every node
    re-verified on every visit — which is the baseline configuration for
    benchmarks and differential tests. Flip it before fanning out to
    multiple domains, not during. *)

val verify_cache_enabled : t -> bool

type verify_stats = {
  vs_ty_entries : int;
  vs_attr_entries : int;
  vs_hits : int;  (** type/attribute cache hits *)
  vs_misses : int;
  vs_memo_ops : int;  (** op names resolved in the memo (handles kept) *)
  vs_memo_sigs : int;  (** signatures recorded across those entries *)
  vs_memo_hits : int;
  vs_memo_misses : int;
  vs_invalidations : int;
}

type uniquing_stats = { us_types : Intern.stats; us_attrs : Intern.stats }

type stats = {
  st_uniquing : uniquing_stats;
      (** Attribute/type uniquer ({!Intern}) counters: [nodes] counts the
          calling domain's live tables, [hits] / [misses] add those of
          every domain that has exited. The uniquer is domain-local and
          shared by all contexts, so every context reports the same
          numbers. *)
  st_verify : verify_stats;
      (** Verification-cache counters: [vs_hits], [vs_misses],
          [vs_memo_hits] and [vs_memo_misses] add up every domain's shard
          that served this context and has since been emptied or exited,
          plus the calling domain's live shard; the entry counts cover
          that live shard only. After a parallel run, read them once the
          worker domains have joined. *)
}

val stats : t -> stats
(** The context's counters in one record. *)

val verify_hit_rate : verify_stats -> float
val pp_verify_stats : Format.formatter -> verify_stats -> unit
val pp_uniquing_stats : Format.formatter -> uniquing_stats -> unit
