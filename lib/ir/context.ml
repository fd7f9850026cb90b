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
module Str_tbl = Hashtbl.Make (String)
module Id_tbl = Hashtbl.Make (Int)

type op_def = Graph.op_def

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
  mutable sg_tail : string;  (** the printed tail; [""] until printed *)
}

(* One domain's slice of the verification cache. Only the owning domain
   ever reads or writes the tables and counters, so no synchronization is
   needed on them; cross-domain visibility of the whole shard record is
   established by the [reg_lock]-protected cons onto [vc_shards]. *)
type vc_shard = {
  sh_domain : int;  (** the owning [Domain.id] *)
  mutable sh_key : int;  (** process-unique, renewed at every flush *)
  sh_ty : (unit, Diag.t) result Id_tbl.t;
  sh_attr : (unit, Diag.t) result Id_tbl.t;
  sh_names : Graph.op_handle Str_tbl.t;  (** slot = insertion rank *)
  mutable sh_memo : op_sig list array;  (** by slot; verified Ok *)
  mutable sh_hits : int;
  mutable sh_misses : int;
  mutable sh_memo_hits : int;
  mutable sh_memo_misses : int;
}

type t = {
  mutable dialects : dialect SMap.t;
  ops : op_def Str_tbl.t;
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
    ops = Str_tbl.create 256;
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

let key_counter = Atomic.make 0
let fresh_key () = Atomic.fetch_and_add key_counter 1 + 1

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
                  sh_key = fresh_key ();
                  sh_ty = Id_tbl.create 256;
                  sh_attr = Id_tbl.create 256;
                  sh_names = Str_tbl.create 256;
                  sh_memo = [||];
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
        Id_tbl.length s.sh_ty > 0
        || Id_tbl.length s.sh_attr > 0
        || Str_tbl.length s.sh_names > 0)
      t.vc_shards
  in
  List.iter
    (fun s ->
      Id_tbl.reset s.sh_ty;
      Id_tbl.reset s.sh_attr;
      Str_tbl.reset s.sh_names;
      s.sh_memo <- [||];
      s.sh_key <- fresh_key ())
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
    match Id_tbl.find (tbl_of s) id with
    | r ->
        s.sh_hits <- s.sh_hits + 1;
        r
    | exception Not_found ->
        s.sh_misses <- s.sh_misses + 1;
        let r = verify t x in
        Id_tbl.replace (tbl_of s) id r;
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

(* A name past the bound gets a handle of its own, with no memo slot. *)
let resolve_in t s name : Graph.op_handle =
  match Str_tbl.find s.sh_names name with
  | h -> h
  | exception Not_found ->
      let n = Str_tbl.length s.sh_names in
      let slot = if n < memo_max_ops then n else -1 in
      let h =
        { Graph.oh_key = s.sh_key; oh_def = Str_tbl.find_opt t.ops name;
          oh_quoted = Attr.to_string (Attr.String name); oh_slot = slot }
      in
      if slot >= 0 then begin
        Str_tbl.add s.sh_names name h;
        if slot = Array.length s.sh_memo then
          s.sh_memo <- Array.append s.sh_memo (Array.make (max 64 slot) [])
      end;
      h

let resolve t (h : Graph.op_handle) name =
  let s = shard t in
  if h.oh_key = s.sh_key then h else resolve_in t s name

let handle t (op : Graph.op) =
  let h = resolve t op.op_handle op.op_name in
  if h != op.op_handle then op.op_handle <- h;
  h

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
  && (match op.successors with
     | [] -> sg.sg_successors = 0
     | succs -> List.length succs = sg.sg_successors)
  && same_operand_tys sg.sg_operands op.op_operands
       (Array.length op.op_operands - 1)
  && same_value_tys sg.sg_results op.op_results
       (Array.length op.op_results - 1)
  && same_attrs sg.sg_attrs op.attrs
  && same_regions sg.sg_regions op.regions

let no_sig =
  { sg_operands = [||]; sg_results = [||]; sg_attrs = []; sg_regions = [];
    sg_successors = 0; sg_tail = "" }

let rec sig_of op = function
  | [] -> no_sig
  | sg :: rest -> if sig_matches op sg then sg else sig_of op rest

(* A checked handle's shard, the caller's: found without [Domain.self]. *)
let rec keyed key = function
  | [] -> raise Not_found
  | s :: rest -> if s.sh_key = key then s else keyed key rest

let memo_mem t (h : Graph.op_handle) op =
  t.vc_enabled
  &&
  match keyed h.oh_key t.vc_shards with
  | exception Not_found -> false
  | s ->
      if h.oh_slot >= 0 && sig_of op s.sh_memo.(h.oh_slot) != no_sig then (
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
    sg_tail = "";
  }

(* Fill-once: the first [memo_max_sigs] signatures that verify stay, and
   later ones are never recorded. Evicting instead would make an op name
   with more live signatures than slots (placeholder ops, constants with
   distinct values) miss on every op. Only Ok verdicts are recorded, so
   keeping any subset of them is sound. *)
let memo_add t (h : Graph.op_handle) op =
  if t.vc_enabled && h.oh_slot >= 0 then
    match keyed h.oh_key t.vc_shards with
    | exception Not_found -> ()
    | s ->
        let sigs = s.sh_memo.(h.oh_slot) in
        if List.compare_length_with sigs memo_max_sigs < 0 then
          s.sh_memo.(h.oh_slot) <- signature op :: sigs

(* The printer's half of the memo: an op whose signature verified Ok
   copies the tail rendered for the first op of that signature. *)
let add_tail t (h : Graph.op_handle) op render buf =
  let sg =
    if t.vc_enabled && h.oh_slot >= 0 then
      match keyed h.oh_key t.vc_shards with
      | s -> sig_of op s.sh_memo.(h.oh_slot)
      | exception Not_found -> no_sig
    else no_sig
  in
  if sg == no_sig then render buf op
  else if String.length sg.sg_tail > 0 then Buffer.add_string buf sg.sg_tail
  else begin
    let mark = Buffer.length buf in
    render buf op;
    sg.sg_tail <- Buffer.sub buf mark (Buffer.length buf - mark)
  end

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
    vs_ty_entries = Id_tbl.length s.sh_ty;
    vs_attr_entries = Id_tbl.length s.sh_attr;
    vs_hits = s.sh_hits;
    vs_misses = s.sh_misses;
    vs_memo_ops = Str_tbl.length s.sh_names;
    vs_memo_sigs =
      Array.fold_left (fun n sigs -> n + List.length sigs) 0 s.sh_memo;
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
      if Str_tbl.mem t.ops qname then
        Diag.raise_error "operation '%s' is already registered" qname;
      d.d_ops <- SMap.add od.od_name od d.d_ops;
      Str_tbl.replace t.ops qname od;
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
let lookup_op t qualified_name = Str_tbl.find_opt t.ops qualified_name

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
