(** The IR context: the registry of dialects and their operation, type and
    attribute definitions.

    Everything here is runtime data — registering an IRDL dialect populates a
    context without any code generation, which is the paper's "instantiate
    all necessary data structures at runtime (without recompilation)".

    {b Concurrency model.} A context lives in two phases. While {e open},
    registration mutates the dialect maps under [reg_lock] (and flushes the
    verification cache); reads are only safe from the registering domain.
    {!freeze} transitions the context — under the same lock, so a racing
    registration either completes before the freeze or is cleanly rejected
    after it — and from then on the dialect maps and the flat op table are
    immutable: any number of domains may look definitions up and verify
    concurrently. The verification caches (type/attr verdicts and the op
    signature memo) are sharded per domain (each shard touched only by its
    owning domain), so post-freeze they are lock-free. *)

open Irdl_support

module SMap = Map.Make (String)

type op_def = {
  od_dialect : string;
  od_name : string;  (** mnemonic, without the dialect prefix *)
  od_summary : string;
  od_is_terminator : bool;
  od_num_regions : int;
  od_verify : Graph.op -> (unit, Diag.t) result;
  od_verify_rest : Graph.op -> (unit, Diag.t) result;
  od_format : Opfmt.t option;
}

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

(* Everything an op's generated constraints read: a pure function of these
   gives the op's verdict minus the checks [od_verify_rest] repeats. Types
   and attributes are compared with [==] on interned nodes. *)
type op_sig = {
  sg_operands : Attr.ty array;
  sg_results : Attr.ty array;
  sg_attrs : (string * Attr.t) list;
  sg_regions : Attr.ty array option list;
      (** Entry-block argument types per region; [None]: no entry block. *)
  sg_successors : int;
}

(* One domain's slice of the verification cache. Only the owning domain
   ever reads or writes the tables and counters, so no synchronization is
   needed on them; cross-domain visibility of the whole shard record is
   established by the [reg_lock]-protected cons onto [vc_shards]. *)
type vc_shard = {
  sh_domain : int;  (** the owning [Domain.id] *)
  sh_ty : (int, (unit, Diag.t) result) Hashtbl.t;
  sh_attr : (int, (unit, Diag.t) result) Hashtbl.t;
  sh_ops : (string, op_entry) Hashtbl.t;
  mutable sh_hits : int;
  mutable sh_misses : int;
  mutable sh_memo_hits : int;
  mutable sh_memo_misses : int;
}

and op_entry = {
  oe_def : op_def option;  (** [None]: unregistered *)
  oe_shard : vc_shard;
  mutable oe_sigs : op_sig list;
      (** verified Ok; at most [memo_max_sigs], never evicted *)
}

type t = {
  mutable dialects : dialect SMap.t;
  ops : (string, op_def) Hashtbl.t;
  allow_unregistered : bool;
      (** When true (the default, as in [mlir-opt
          --allow-unregistered-dialect]), operations of unknown dialects
          parse and verify structurally only. *)
  reg_lock : Mutex.t;
      (** Serializes registration, the freeze transition, and shard-list /
          cache-configuration updates. *)
  mutable frozen : bool;
      (** Written only under [reg_lock]; monotone false → true. *)
  mutable vc_shards : vc_shard list;
      (** Per-domain cache shards; consed under [reg_lock]. The unlocked
          read in [shard] is safe: list cells are immutable, a stale read
          at worst misses the newest shard and retries under the lock. *)
  mutable vc_enabled : bool;
  mutable vc_invalidations : int;
}

let create ?(allow_unregistered = true) () =
  {
    dialects = SMap.empty;
    ops = Hashtbl.create 256;
    allow_unregistered;
    reg_lock = Mutex.create ();
    frozen = false;
    vc_shards = [];
    vc_enabled = true;
    vc_invalidations = 0;
  }

let locked t f =
  Mutex.lock t.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_lock) f

(* ---------------------------------------------------------------- *)
(* Freeze lifecycle                                                  *)
(* ---------------------------------------------------------------- *)

let freeze t = locked t (fun () -> t.frozen <- true)
let is_frozen t = t.frozen

(* Registration entry points call this under [reg_lock], so a register
   racing a freeze is either fully applied before the flag flips or
   rejected here — the dialect maps and the uniquer are never left
   half-updated. *)
let check_open t ~what ~name =
  if t.frozen then
    Diag.raise_error "cannot register %s '%s': the context is frozen" what
      name

(* ---------------------------------------------------------------- *)
(* Verification cache                                                *)
(* ---------------------------------------------------------------- *)

let rec find_shard did = function
  | [] -> raise Not_found
  | (s : vc_shard) :: rest ->
      if s.sh_domain = did then s else find_shard did rest

(* The calling domain's shard, created on first use. Domain ids are never
   reused within a process, so a shard belongs to exactly one domain for
   the lifetime of the context. Finding it allocates nothing. *)
let shard t =
  let did = (Domain.self () :> int) in
  match find_shard did t.vc_shards with
  | s -> s
  | exception Not_found ->
      locked t (fun () ->
          match find_shard did t.vc_shards with
          | s -> s
          | exception Not_found ->
              let s =
                {
                  sh_domain = did;
                  sh_ty = Hashtbl.create 256;
                  sh_attr = Hashtbl.create 256;
                  sh_ops = Hashtbl.create 256;
                  sh_hits = 0;
                  sh_misses = 0;
                  sh_memo_hits = 0;
                  sh_memo_misses = 0;
                }
              in
              t.vc_shards <- s :: t.vc_shards;
              s)

(* Counts only flushes that actually dropped entries, so corpus-sized
   registration bursts into a fresh context don't inflate the number.
   Callers hold [reg_lock]; pre-freeze there are no concurrent readers. *)
let invalidate_locked t =
  let dropped =
    List.exists
      (fun s ->
        Hashtbl.length s.sh_ty > 0
        || Hashtbl.length s.sh_attr > 0
        || Hashtbl.length s.sh_ops > 0)
      t.vc_shards
  in
  List.iter
    (fun s ->
      Hashtbl.reset s.sh_ty;
      Hashtbl.reset s.sh_attr;
      Hashtbl.reset s.sh_ops)
    t.vc_shards;
  if dropped then t.vc_invalidations <- t.vc_invalidations + 1

let invalidate_verify_cache t = locked t (fun () -> invalidate_locked t)

(* [verify t x] is passed with its argument rather than as a thunk, and
   the probe raises rather than returning an option: a hit allocates
   nothing. *)
let cached_verify tbl_of t id verify x =
  if not t.vc_enabled then verify t x
  else
    let s = shard t in
    match Hashtbl.find (tbl_of s) id with
    | r ->
        s.sh_hits <- s.sh_hits + 1;
        r
    | exception Not_found ->
        s.sh_misses <- s.sh_misses + 1;
        let r = verify t x in
        Hashtbl.replace (tbl_of s) id r;
        r

let cached_verify_ty t id verify ty =
  cached_verify (fun s -> s.sh_ty) t id verify ty

let cached_verify_attr t id verify a =
  cached_verify (fun s -> s.sh_attr) t id verify a

(* ---------------------------------------------------------------- *)
(* Op signature memo                                                 *)
(* ---------------------------------------------------------------- *)

(* Fixed bounds, so a resident server fed adversarial op names or a
   stream of distinct constants keeps each shard's memo small. *)
let memo_max_ops = 4096
let memo_max_sigs = 4

let op_entry t name =
  let s = shard t in
  match Hashtbl.find s.sh_ops name with
  | e -> e
  | exception Not_found ->
      let e =
        { oe_def = Hashtbl.find_opt t.ops name; oe_shard = s; oe_sigs = [] }
      in
      if Hashtbl.length s.sh_ops < memo_max_ops then
        Hashtbl.add s.sh_ops name e;
      e

let entry_def e = e.oe_def

(* The comparisons below walk the op in place: a memo hit allocates
   nothing. *)
let rec same_operand_tys (k : Attr.ty array) (a : Graph.use array) i =
  i < 0 || (k.(i) == a.(i).u_value.v_ty && same_operand_tys k a (i - 1))

let rec same_value_tys (k : Attr.ty array) (a : Graph.value array) i =
  i < 0 || (k.(i) == a.(i).v_ty && same_value_tys k a (i - 1))

let rec same_attrs k (a : (string * Attr.t) list) =
  k == a
  ||
  match (k, a) with
  | (kn, kv) :: k, (n, v) :: a ->
      kv == v && String.equal kn n && same_attrs k a
  | _ -> false

let rec same_regions k (rs : Graph.region list) =
  match (k, rs) with
  | [], [] -> true
  | None :: k, { reg_first = None; _ } :: rs -> same_regions k rs
  | Some tys :: k, { reg_first = Some b; _ } :: rs ->
      Array.length tys = Array.length b.blk_args
      && same_value_tys tys b.blk_args (Array.length tys - 1)
      && same_regions k rs
  | _ -> false

let sig_matches (op : Graph.op) sg =
  Array.length sg.sg_operands = Array.length op.op_operands
  && Array.length sg.sg_results = Array.length op.op_results
  && List.compare_length_with op.successors sg.sg_successors = 0
  && same_operand_tys sg.sg_operands op.op_operands
       (Array.length op.op_operands - 1)
  && same_value_tys sg.sg_results op.op_results
       (Array.length op.op_results - 1)
  && same_attrs sg.sg_attrs op.attrs
  && same_regions sg.sg_regions op.regions

let rec find_sig op = function
  | [] -> false
  | sg :: rest -> sig_matches op sg || find_sig op rest

let memo_mem e op =
  let s = e.oe_shard in
  if find_sig op e.oe_sigs then (
    s.sh_memo_hits <- s.sh_memo_hits + 1;
    true)
  else (
    s.sh_memo_misses <- s.sh_memo_misses + 1;
    false)

let signature (op : Graph.op) =
  let ty (v : Graph.value) = v.v_ty in
  {
    sg_operands =
      Array.map (fun (u : Graph.use) -> ty u.u_value) op.op_operands;
    sg_results = Array.map ty op.op_results;
    sg_attrs = op.attrs;
    sg_regions =
      List.map
        (fun (r : Graph.region) ->
          Option.map (fun (b : Graph.block) -> Array.map ty b.blk_args)
            r.reg_first)
        op.regions;
    sg_successors = List.length op.successors;
  }

(* Fill-once: the first [memo_max_sigs] signatures that verify stay, and
   later ones are never recorded. Evicting instead would make an op name
   with more live signatures than slots (placeholder ops, constants with
   distinct values) miss on every op. Only Ok verdicts are recorded, so
   keeping any subset of them is sound. *)
let memo_add e op =
  if List.compare_length_with e.oe_sigs memo_max_sigs < 0 then
    e.oe_sigs <- signature op :: e.oe_sigs

(* [set_verify_cache t false] restores the pre-memoization behaviour (every
   node re-verified on every visit) — the baseline configuration for
   benchmarks and differential tests. Disabling flushes every shard so a
   later re-enable starts from a clean slate. Not safe to race with active
   verification on other domains; flip it before fanning out. *)
let set_verify_cache t enabled =
  locked t (fun () ->
      if (not enabled) && t.vc_enabled then invalidate_locked t;
      t.vc_enabled <- enabled)

let verify_cache_enabled t = t.vc_enabled

type verify_stats = {
  vs_ty_entries : int;
  vs_attr_entries : int;
  vs_hits : int;
  vs_misses : int;
  vs_memo_ops : int;
  vs_memo_sigs : int;
  vs_memo_hits : int;
  vs_memo_misses : int;
  vs_invalidations : int;
}

let empty_verify_stats =
  {
    vs_ty_entries = 0;
    vs_attr_entries = 0;
    vs_hits = 0;
    vs_misses = 0;
    vs_memo_ops = 0;
    vs_memo_sigs = 0;
    vs_memo_hits = 0;
    vs_memo_misses = 0;
    vs_invalidations = 0;
  }

let shard_stats (s : vc_shard) =
  {
    vs_ty_entries = Hashtbl.length s.sh_ty;
    vs_attr_entries = Hashtbl.length s.sh_attr;
    vs_hits = s.sh_hits;
    vs_misses = s.sh_misses;
    vs_memo_ops = Hashtbl.length s.sh_ops;
    vs_memo_sigs =
      Hashtbl.fold (fun _ e n -> n + List.length e.oe_sigs) s.sh_ops 0;
    vs_memo_hits = s.sh_memo_hits;
    vs_memo_misses = s.sh_memo_misses;
    vs_invalidations = 0;
  }

let add_verify_stats a b =
  {
    vs_ty_entries = a.vs_ty_entries + b.vs_ty_entries;
    vs_attr_entries = a.vs_attr_entries + b.vs_attr_entries;
    vs_hits = a.vs_hits + b.vs_hits;
    vs_misses = a.vs_misses + b.vs_misses;
    vs_memo_ops = a.vs_memo_ops + b.vs_memo_ops;
    vs_memo_sigs = a.vs_memo_sigs + b.vs_memo_sigs;
    vs_memo_hits = a.vs_memo_hits + b.vs_memo_hits;
    vs_memo_misses = a.vs_memo_misses + b.vs_memo_misses;
    vs_invalidations = a.vs_invalidations + b.vs_invalidations;
  }

(* Per-shard counters, newest shard first. Meaningful once the domains
   that own the shards are quiescent (e.g. after a pool join). *)
let verify_shard_stats t =
  locked t (fun () -> List.map shard_stats t.vc_shards)

(* Merged across shards: the single-domain numbers are unchanged (one
   shard), and after a parallel run this is the whole-process view. *)
let verify_stats t =
  let merged =
    List.fold_left
      (fun acc s -> add_verify_stats acc (shard_stats s))
      empty_verify_stats (locked t (fun () -> t.vc_shards))
  in
  { merged with vs_invalidations = t.vc_invalidations }

let verify_hit_rate { vs_hits; vs_misses; _ } =
  let total = vs_hits + vs_misses in
  if total = 0 then 0. else float_of_int vs_hits /. float_of_int total

let pp_verify_stats ppf s =
  Fmt.pf ppf
    "%d type + %d attr entries, %d hits / %d misses (%.1f%% hit rate), %d \
     invalidations; op memo: %d signatures, %d hits / %d misses"
    s.vs_ty_entries s.vs_attr_entries s.vs_hits s.vs_misses
    (100. *. verify_hit_rate s)
    s.vs_invalidations s.vs_memo_sigs s.vs_memo_hits s.vs_memo_misses

let qualified ~dialect ~name = dialect ^ "." ^ name

let get_dialect t name = SMap.find_opt name t.dialects

let dialects t = SMap.bindings t.dialects |> List.map snd

let register_dialect_locked t name =
  match SMap.find_opt name t.dialects with
  | Some d -> d
  | None ->
      check_open t ~what:"dialect" ~name;
      let d =
        { d_name = name; d_ops = SMap.empty; d_types = SMap.empty;
          d_attrs = SMap.empty }
      in
      t.dialects <- SMap.add name d t.dialects;
      d

let register_dialect t name = locked t (fun () -> register_dialect_locked t name)

let register_op t (od : op_def) =
  locked t (fun () ->
      check_open t ~what:"operation"
        ~name:(qualified ~dialect:od.od_dialect ~name:od.od_name);
      let d = register_dialect_locked t od.od_dialect in
      let qname = qualified ~dialect:od.od_dialect ~name:od.od_name in
      if Hashtbl.mem t.ops qname then
        Diag.raise_error "operation '%s' is already registered" qname;
      d.d_ops <- SMap.add od.od_name od d.d_ops;
      Hashtbl.replace t.ops qname od;
      invalidate_locked t)

let register_type t (td : type_def) =
  locked t (fun () ->
      check_open t ~what:"type"
        ~name:(qualified ~dialect:td.td_dialect ~name:td.td_name);
      let d = register_dialect_locked t td.td_dialect in
      if SMap.mem td.td_name d.d_types then
        Diag.raise_error "type '%s.%s' is already registered" td.td_dialect
          td.td_name;
      d.d_types <- SMap.add td.td_name td d.d_types;
      invalidate_locked t)

let register_attr t (ad : attr_def) =
  locked t (fun () ->
      check_open t ~what:"attribute"
        ~name:(qualified ~dialect:ad.ad_dialect ~name:ad.ad_name);
      let d = register_dialect_locked t ad.ad_dialect in
      if SMap.mem ad.ad_name d.d_attrs then
        Diag.raise_error "attribute '%s.%s' is already registered"
          ad.ad_dialect ad.ad_name;
      d.d_attrs <- SMap.add ad.ad_name ad d.d_attrs;
      invalidate_locked t)

(** Look up the definition for a fully-qualified op name like ["cmath.mul"]:
    one probe of the flat op table. *)
let lookup_op t qualified_name = Hashtbl.find_opt t.ops qualified_name

let lookup_type t ~dialect ~name =
  Option.bind (get_dialect t dialect) (fun d -> SMap.find_opt name d.d_types)

let lookup_attr t ~dialect ~name =
  Option.bind (get_dialect t dialect) (fun d -> SMap.find_opt name d.d_attrs)

let op_stats t =
  SMap.fold
    (fun _ d (nops, ntys, nattrs) ->
      ( nops + SMap.cardinal d.d_ops,
        ntys + SMap.cardinal d.d_types,
        nattrs + SMap.cardinal d.d_attrs ))
    t.dialects (0, 0, 0)

type uniquing_stats = { us_types : Intern.stats; us_attrs : Intern.stats }

let pp_uniquing_stats ppf { us_types; us_attrs } =
  Fmt.pf ppf "types: %a@ attrs: %a" Intern.pp_stats us_types Intern.pp_stats
    us_attrs

(* ------------------------------------------------------------------ *)
(* Unified stats surface                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_uniquing : uniquing_stats;
  st_verify : verify_stats;
  st_verify_shards : verify_stats list;
}

let stats ?(scope = `Merged) t =
  let st_uniquing =
    let us_types, us_attrs =
      match scope with
      | `Merged -> Attr.uniquer_stats_merged ()
      | `Per_domain -> Attr.uniquer_stats ()
    in
    { us_types; us_attrs }
  in
  let st_verify_shards =
    match scope with `Merged -> [] | `Per_domain -> verify_shard_stats t
  in
  { st_uniquing; st_verify = verify_stats t; st_verify_shards }
