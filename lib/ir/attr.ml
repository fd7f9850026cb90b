(** Types and attributes of the IR.

    Following xDSL (and unlike MLIR's C++ split), types and attributes live in
    one recursive value domain: a type can appear as an attribute ({!Type})
    and dynamic (IRDL-defined) types carry attribute parameters. This makes
    IRDL parameter constraints uniform: they all constrain attributes.

    Builtin types mirror the MLIR builtins that the paper's corpus depends
    on: signless/signed/unsigned integers, the standard float kinds, [index],
    and function/tuple aggregates. Everything else is a {!Dynamic} type or
    {!Dyn_attr} attribute introduced at runtime by dialect registration.

    {b Uniquing.} Like MLIR's [MLIRContext], every node built through the
    constructors below is hash-consed into a uniquer ({!Intern}) — one
    shard per domain, so parallel workers never share a table: within a
    domain structurally equal attributes are physically equal, and
    {!equal}/{!equal_ty} decide interned operands with a pointer comparison.
    The variant constructors remain exposed for pattern matching, but values
    must never be built from them directly outside this module — always go
    through the smart constructors (or {!intern}/{!intern_ty} for values
    assembled elsewhere). *)

open Irdl_support

type signedness = Signless | Signed | Unsigned

type float_kind = BF16 | F16 | F32 | F64

type ty =
  | Integer of { width : int; signedness : signedness }
  | Float of float_kind
  | Index
  | None_ty
  | Function of { inputs : ty list; outputs : ty list }
  | Tuple of ty list
  | Dynamic of { dialect : string; name : string; params : t list }

and t =
  | Unit
  | Bool of bool
  | Int of { value : int64; ty : ty }
  | Float_attr of { value : float; ty : ty }
  | String of string
  | Array of t list
  | Dict of (string * t) list
  | Type of ty
  | Enum of { dialect : string; enum : string; case : string }
  | Symbol of string
  | Location of { file : string; line : int; col : int }
  | Type_id of string
  | Opaque of { tag : string; repr : string }
      (** Escape hatch for IRDL-C++ [TypeOrAttrParam] parameters: [tag] names
          the registered native parameter kind, [repr] its printed form. *)
  | Dyn_attr of { dialect : string; name : string; params : t list }
      (** An attribute defined at runtime by an IRDL [Attribute] definition. *)

(* ------------------------------------------------------------------ *)
(* Structural equality and hashing (the uniquer's keys)                *)
(* ------------------------------------------------------------------ *)

(* The structural walks below carry a physical fast path at every level:
   once sub-terms are interned, comparing two attributes only descends until
   it meets canonical nodes, so equality of interned values never walks. *)

let rec structural_equal_ty (a : ty) (b : ty) =
  a == b
  ||
  match (a, b) with
  | Integer a, Integer b -> a.width = b.width && a.signedness = b.signedness
  | Float a, Float b -> a = b
  | Index, Index | None_ty, None_ty -> true
  | Function a, Function b ->
      List.length a.inputs = List.length b.inputs
      && List.length a.outputs = List.length b.outputs
      && List.for_all2 structural_equal_ty a.inputs b.inputs
      && List.for_all2 structural_equal_ty a.outputs b.outputs
  | Tuple a, Tuple b ->
      List.length a = List.length b && List.for_all2 structural_equal_ty a b
  | Dynamic a, Dynamic b ->
      a.dialect = b.dialect && a.name = b.name
      && List.length a.params = List.length b.params
      && List.for_all2 structural_equal a.params b.params
  | ( ( Integer _ | Float _ | Index | None_ty | Function _ | Tuple _
      | Dynamic _ ),
      _ ) ->
      false

and structural_equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> Int64.equal a.value b.value && structural_equal_ty a.ty b.ty
  | Float_attr a, Float_attr b ->
      (* Bitwise comparison so that attribute equality is reflexive even for
         NaN payloads appearing in folded constants. *)
      Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)
      && structural_equal_ty a.ty b.ty
  | String a, String b -> String.equal a b
  | Array a, Array b ->
      List.length a = List.length b && List.for_all2 structural_equal a b
  | Dict a, Dict b ->
      (* Dictionaries are canonicalized to sorted key order at construction
         time, so the ordered comparison is key-order-insensitive for any
         value built through {!dict} or {!intern}. *)
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) ->
             String.equal ka kb && structural_equal va vb)
           a b
  | Type a, Type b -> structural_equal_ty a b
  | Enum a, Enum b ->
      a.dialect = b.dialect && a.enum = b.enum && a.case = b.case
  | Symbol a, Symbol b -> String.equal a b
  | Location a, Location b ->
      String.equal a.file b.file && a.line = b.line && a.col = b.col
  | Type_id a, Type_id b -> String.equal a b
  | Opaque a, Opaque b -> a.tag = b.tag && a.repr = b.repr
  | Dyn_attr a, Dyn_attr b ->
      a.dialect = b.dialect && a.name = b.name
      && List.length a.params = List.length b.params
      && List.for_all2 structural_equal a.params b.params
  | ( ( Unit | Bool _ | Int _ | Float_attr _ | String _ | Array _ | Dict _
      | Type _ | Enum _ | Symbol _ | Location _ | Type_id _ | Opaque _
      | Dyn_attr _ ),
      _ ) ->
      false

(** Interned operands decide on the pointer; the structural walk remains as
    a correct fallback for values that bypassed the uniquer. *)
let equal_ty a b = a == b || structural_equal_ty a b

let equal a b = a == b || structural_equal a b

(* A conventional accumulator mix (Boost hash_combine); paired with the
   equalities above so that [equal a b] implies [hash a = hash b]. *)
let combine h k = h lxor (k + 0x9e3779b9 + (h lsl 6) + (h lsr 2))

let hash_string h s = combine h (Hashtbl.hash (s : string))
let hash_int64 h (v : int64) = combine (combine h (Int64.to_int v)) 17

let hash_signedness = function Signless -> 1 | Signed -> 2 | Unsigned -> 3
let hash_float_kind = function BF16 -> 1 | F16 -> 2 | F32 -> 3 | F64 -> 4

let rec hash_ty (ty : ty) =
  match ty with
  | Integer { width; signedness } ->
      combine (combine 3 width) (hash_signedness signedness)
  | Float k -> combine 5 (hash_float_kind k)
  | Index -> 7
  | None_ty -> 11
  | Function { inputs; outputs } ->
      let h = List.fold_left (fun h t -> combine h (hash_ty t)) 13 inputs in
      List.fold_left (fun h t -> combine h (hash_ty t)) (combine h 0) outputs
  | Tuple tys -> List.fold_left (fun h t -> combine h (hash_ty t)) 17 tys
  | Dynamic { dialect; name; params } ->
      List.fold_left
        (fun h p -> combine h (hash p))
        (hash_string (hash_string 19 dialect) name)
        params

and hash (a : t) =
  match a with
  | Unit -> 23
  | Bool b -> combine 29 (Bool.to_int b)
  | Int { value; ty } -> combine (hash_int64 31 value) (hash_ty ty)
  | Float_attr { value; ty } ->
      (* Hash the bits to match the bitwise equality (NaN-safe). *)
      combine (hash_int64 37 (Int64.bits_of_float value)) (hash_ty ty)
  | String s -> hash_string 41 s
  | Array xs -> List.fold_left (fun h x -> combine h (hash x)) 43 xs
  | Dict kvs ->
      List.fold_left
        (fun h (k, v) -> combine (hash_string h k) (hash v))
        47 kvs
  | Type ty -> combine 53 (hash_ty ty)
  | Enum { dialect; enum; case } ->
      hash_string (hash_string (hash_string 59 dialect) enum) case
  | Symbol s -> hash_string 61 s
  | Location { file; line; col } ->
      combine (combine (hash_string 67 file) line) col
  | Type_id s -> hash_string 71 s
  | Opaque { tag; repr } -> hash_string (hash_string 73 tag) repr
  | Dyn_attr { dialect; name; params } ->
      List.fold_left
        (fun h p -> combine h (hash p))
        (hash_string (hash_string 79 dialect) name)
        params

(* ------------------------------------------------------------------ *)
(* The uniquer                                                         *)
(* ------------------------------------------------------------------ *)

module Ty_uniquer = Intern.Make (struct
  type t = ty

  let equal = structural_equal_ty
  let hash = hash_ty
end)

module Attr_uniquer = Intern.Make (struct
  type nonrec t = t

  let equal = structural_equal
  let hash = hash
end)

(* One uniquer pair per domain, owned conceptually by {!Context} (which
   reports its statistics): attribute construction must work before any
   context exists — dialect corpus helpers, constant pools — exactly as
   MLIR's builtin attribute storage outlives dialect registration.

   The pair is domain-local (Domain.DLS) rather than process-wide so that
   parallel verification workers never contend on — or race inside — the
   hash tables: each domain uniques into its own shard, physical equality
   and dense ids hold within a domain (which is where [==] fast paths and
   id-keyed caches are consulted), and cross-domain comparisons fall back
   to the structural walk that every equality in this module keeps anyway.
   A registry of all shards backs the merged statistics. *)
type uniquer_shard = {
  sh_tys : Ty_uniquer.table;
  sh_attrs : Attr_uniquer.table;
}

let shard_registry : uniquer_shard list ref = ref []
let shard_registry_lock = Mutex.create ()

let uniquer_key : uniquer_shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let sh =
        { sh_tys = Ty_uniquer.create (); sh_attrs = Attr_uniquer.create () }
      in
      Mutex.lock shard_registry_lock;
      shard_registry := sh :: !shard_registry;
      Mutex.unlock shard_registry_lock;
      sh)

let ty_uniquer () = (Domain.DLS.get uniquer_key).sh_tys
let attr_uniquer () = (Domain.DLS.get uniquer_key).sh_attrs

let by_key (a, _) (b, _) = String.compare a b

(* A key of sorted entries that occurs more than once. *)
let rec adjacent_key = function
  | (k1, _) :: ((k2, _) :: _ as rest) ->
      if String.equal k1 k2 then Some k1 else adjacent_key rest
  | _ -> None

let duplicate_key kvs =
  let rec mem k = function
    | [] -> false
    | (k', _) :: rest -> String.equal k k' || mem k rest
  in
  let rec pairwise = function
    | [] -> None
    | (k, _) :: rest -> if mem k rest then Some k else pairwise rest
  in
  (* Pairwise allocates nothing for the few entries an op has; sorting
     bounds a long dictionary at n log n. *)
  if List.compare_length_with kvs 8 <= 0 then pairwise kvs
  else adjacent_key (List.stable_sort by_key kvs)

let duplicate_key_message k =
  Printf.sprintf "duplicate key '%s' in dictionary attribute" k

(** Canonicalize a dictionary's entries: stable-sort by key so equality and
    hashing are key-order-insensitive, and reject duplicate keys. *)
let canonicalize_dict kvs =
  let sorted = List.stable_sort by_key kvs in
  (match adjacent_key sorted with
  | Some k -> Diag.raise_error "%s" (duplicate_key_message k)
  | None -> ());
  sorted

(** Deeply intern an attribute/type assembled outside this module (tests,
    deserializers). Nodes built through the smart constructors are already
    canonical, so the [find] fast path stops the walk at the first
    already-interned level. *)
let rec intern_ty (ty0 : ty) : ty =
  let ty_uniquer = ty_uniquer () in
  match Ty_uniquer.find ty_uniquer ty0 with
  | Some canonical -> canonical
  | None ->
      let rebuilt =
        match ty0 with
        | Integer _ | Float _ | Index | None_ty -> ty0
        | Function { inputs; outputs } ->
            Function
              {
                inputs = List.map intern_ty inputs;
                outputs = List.map intern_ty outputs;
              }
        | Tuple tys -> Tuple (List.map intern_ty tys)
        | Dynamic { dialect; name; params } ->
            Dynamic { dialect; name; params = List.map intern params }
      in
      Ty_uniquer.intern ty_uniquer rebuilt

and intern (a0 : t) : t =
  let attr_uniquer = attr_uniquer () in
  match Attr_uniquer.find attr_uniquer a0 with
  | Some canonical -> canonical
  | None ->
      let rebuilt =
        match a0 with
        | Unit | Bool _ | String _ | Enum _ | Symbol _ | Location _
        | Type_id _ | Opaque _ ->
            a0
        | Int { value; ty } -> Int { value; ty = intern_ty ty }
        | Float_attr { value; ty } -> Float_attr { value; ty = intern_ty ty }
        | Array xs -> Array (List.map intern xs)
        | Dict kvs ->
            Dict
              (canonicalize_dict (List.map (fun (k, v) -> (k, intern v)) kvs))
        | Type ty -> Type (intern_ty ty)
        | Dyn_attr { dialect; name; params } ->
            Dyn_attr { dialect; name; params = List.map intern params }
      in
      Attr_uniquer.intern attr_uniquer rebuilt

(* A node built by the constructors is already canonical: one physical
   probe answers, with no deep [intern] walk and no option. *)
let id a =
  let u = attr_uniquer () in
  match Attr_uniquer.canonical_id u a with
  | -1 -> Attr_uniquer.id u (intern a)
  | id -> id

let id_ty ty =
  let u = ty_uniquer () in
  match Ty_uniquer.canonical_id u ty with
  | -1 -> Ty_uniquer.id u (intern_ty ty)
  | id -> id

(** The calling domain's shard counters. Single-domain programs see exactly
    the historical process-wide numbers (there is only one shard). *)
let uniquer_stats () =
  (Ty_uniquer.stats (ty_uniquer ()), Attr_uniquer.stats (attr_uniquer ()))

(** Counters summed over every domain's shard. [nodes] counts canonical
    copies per shard, not globally distinct structures. *)
let uniquer_stats_merged () =
  Mutex.lock shard_registry_lock;
  let shards = !shard_registry in
  Mutex.unlock shard_registry_lock;
  List.fold_left
    (fun (tys, attrs) sh ->
      ( Intern.add_stats tys (Ty_uniquer.stats sh.sh_tys),
        Intern.add_stats attrs (Attr_uniquer.stats sh.sh_attrs) ))
    ( { Intern.nodes = 0; hits = 0; misses = 0 },
      { Intern.nodes = 0; hits = 0; misses = 0 } )
    shards

(* ------------------------------------------------------------------ *)
(* Smart constructors (every node they build is interned)              *)
(* ------------------------------------------------------------------ *)

(* Convenience type constructors. *)

let i1 = intern_ty (Integer { width = 1; signedness = Signless })
let i8 = intern_ty (Integer { width = 8; signedness = Signless })
let i16 = intern_ty (Integer { width = 16; signedness = Signless })
let i32 = intern_ty (Integer { width = 32; signedness = Signless })
let i64 = intern_ty (Integer { width = 64; signedness = Signless })
let f16 = intern_ty (Float F16)
let f32 = intern_ty (Float F32)
let f64 = intern_ty (Float F64)
let bf16 = intern_ty (Float BF16)
let index = intern_ty Index
let none = intern_ty None_ty

let integer ?(signedness = Signless) width =
  if width <= 0 then invalid_arg "Attr.integer: width must be positive";
  intern_ty (Integer { width; signedness })

let dynamic ~dialect ~name params = intern_ty (Dynamic { dialect; name; params })
let function_ty ~inputs ~outputs = intern_ty (Function { inputs; outputs })
let tuple tys = intern_ty (Tuple tys)

(* Convenience attribute constructors. *)

let unit = intern Unit
let bool b = intern (Bool b)
let int ?(ty = i64) value = intern (Int { value; ty })
let int_of ~ty value = intern (Int { value = Int64.of_int value; ty })
let float ?(ty = f64) value = intern (Float_attr { value; ty })
let string s = intern (String s)
let array xs = intern (Array xs)
let dict kvs = intern (Dict kvs)
let typ ty = intern (Type ty)
let enum ~dialect ~enum:e case = intern (Enum { dialect; enum = e; case })
let symbol s = intern (Symbol s)
let location ~file ~line ~col = intern (Location { file; line; col })
let type_id s = intern (Type_id s)
let opaque ~tag repr = intern (Opaque { tag; repr })
let dyn_attr ~dialect ~name params = intern (Dyn_attr { dialect; name; params })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* The one textual renderer: attributes and types are appended to a
   [Buffer.t]; the [Format] printers and [to_string]s below wrap it. *)

let str = Buffer.add_string
let chr = Buffer.add_char

let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  chr b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_nat b n else str b (string_of_int n)

(* Bytes that {!Sbuf.string_literal} cannot read back verbatim. *)
let needs_escape c = c < ' ' || c = '"' || c = '\\' || c = '\127'

let rec has_escape s i =
  i < String.length s
  && (needs_escape (String.unsafe_get s i) || has_escape s (i + 1))

let add_quoted b s =
  chr b '"';
  if not (has_escape s 0) then str b s
  else
    String.iter
      (function
        | '"' -> str b "\\\""
        | '\\' -> str b "\\\\"
        | '\n' -> str b "\\n"
        | '\t' -> str b "\\t"
        | c when needs_escape c -> Printf.bprintf b "\\%02X" (Char.code c)
        | c -> chr b c)
      s;
  chr b '"'

(* Finite values print in the shortest decimal form that round-trips and
   still lexes as a float (it has a '.' or an exponent). Infinities and
   NaNs have no decimal form: they print as the hex bit pattern of the
   stored double, which the parser reads back before a float type. *)
let add_float b value =
  if not (Float.is_finite value) then
    Printf.bprintf b "0x%016LX" (Int64.bits_of_float value)
  else if Float.is_integer value && Float.abs value < 1e15 then
    Printf.bprintf b "%.1f" value
  else
    let s = Printf.sprintf "%.15g" value in
    let s =
      if float_of_string s = value then s else Printf.sprintf "%.17g" value
    in
    str b s;
    if not (String.contains s '.' || String.contains s 'e') then str b ".0"

let float_kind_name = function
  | BF16 -> "bf16"
  | F16 -> "f16"
  | F32 -> "f32"
  | F64 -> "f64"

let rec add_rest add b = function
  | [] -> ()
  | x :: xs ->
      str b ", ";
      add b x;
      add_rest add b xs

let add_list add b = function
  | [] -> ()
  | x :: xs ->
      add b x;
      add_rest add b xs

let rec add_ty b (ty : ty) =
  match ty with
  | Integer { width; signedness } ->
      str b
        (match signedness with
        | Signless -> "i"
        | Signed -> "si"
        | Unsigned -> "ui");
      add_int b width
  | Float k -> str b (float_kind_name k)
  | Index -> str b "index"
  | None_ty -> str b "none"
  | Function { inputs; outputs } ->
      chr b '(';
      add_list add_ty b inputs;
      str b ") -> (";
      add_list add_ty b outputs;
      chr b ')'
  | Tuple tys ->
      str b "tuple<";
      add_list add_ty b tys;
      chr b '>'
  | Dynamic { dialect; name; params } ->
      chr b '!';
      str b dialect;
      chr b '.';
      str b name;
      add_params b params

and add_params b = function
  | [] -> ()
  | params ->
      chr b '<';
      add_list add b params;
      chr b '>'

and add b (a : t) =
  match a with
  | Unit -> str b "unit"
  | Bool v -> str b (if v then "true" else "false")
  | Int { value; ty } ->
      str b (Int64.to_string value);
      str b " : ";
      add_ty b ty
  | Float_attr { value; ty } ->
      add_float b value;
      str b " : ";
      add_ty b ty
  | String s -> add_quoted b s
  | Array xs ->
      chr b '[';
      add_list add b xs;
      chr b ']'
  | Dict kvs ->
      chr b '{';
      add_list (fun b (k, v) -> str b k; str b " = "; add b v) b kvs;
      chr b '}'
  | Type ty -> add_ty b ty
  | Enum { dialect; enum; case } ->
      List.iter (str b) [ "#"; dialect; "<"; enum; "."; case; ">" ]
  | Symbol s ->
      chr b '@';
      str b s
  | Location { file; line; col } ->
      str b "loc(";
      add_quoted b file;
      Printf.bprintf b ":%d:%d)" line col
  | Type_id id -> List.iter (str b) [ "#typeid<"; id; ">" ]
  | Opaque { tag; repr } ->
      List.iter (str b) [ "#native<"; tag; ", " ];
      add_quoted b repr;
      chr b '>'
  | Dyn_attr { dialect; name; params } ->
      chr b '#';
      str b dialect;
      chr b '.';
      str b name;
      add_params b params

let render add x =
  let b = Buffer.create 32 in
  add b x;
  Buffer.contents b

let ty_to_string = render add_ty
let to_string = render add
let pp_float_kind ppf k = Format.pp_print_string ppf (float_kind_name k)
let pp_ty ppf ty = Format.pp_print_string ppf (ty_to_string ty)
let pp ppf a = Format.pp_print_string ppf (to_string a)

(** The [i1] constant [true]/[false] used by conditional branches. *)
let bool_int b = int ~ty:i1 (if b then 1L else 0L)

let is_float_ty = function Float _ -> true | _ -> false
let is_integer_ty = function Integer _ -> true | _ -> false

(** Dictionary lookup helper used throughout verifier generation. *)
let dict_find key = function
  | Dict kvs -> List.assoc_opt key kvs
  | _ -> None
