(** Types and attributes of the IR.

    Following xDSL (and unlike MLIR's C++ split), types and attributes live
    in one recursive value domain: a type can appear as an attribute
    ({!Type}) and dynamic (IRDL-defined) types carry attribute parameters.
    This makes IRDL parameter constraints uniform: they all constrain
    attributes.

    {b Uniquing discipline.} Every value built through the smart
    constructors below is hash-consed ({!Intern}) into a domain-local
    uniquer shard, as MLIR's [MLIRContext] uniques its types and
    attributes: within one domain structurally equal nodes are physically
    equal and {!equal}/{!equal_ty} decide them with a pointer comparison
    (values crossing domains fall back to the structural walk). The
    variant constructors stay exposed for pattern matching only — never
    build attribute values from them directly; route hand-assembled
    values through {!intern} / {!intern_ty}. *)

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
      (** A type defined at runtime by an IRDL [Type] definition. *)

and t =
  | Unit
  | Bool of bool
  | Int of { value : int64; ty : ty }
  | Float_attr of { value : float; ty : ty }
  | String of string
  | Array of t list
  | Dict of (string * t) list
      (** Canonicalized to sorted key order at construction time. *)
  | Type of ty  (** A type used as an attribute. *)
  | Enum of { dialect : string; enum : string; case : string }
  | Symbol of string
  | Location of { file : string; line : int; col : int }
  | Type_id of string
  | Opaque of { tag : string; repr : string }
      (** Escape hatch for IRDL-C++ [TypeOrAttrParam] parameters: [tag]
          names the registered native parameter kind, [repr] its printed
          form. *)
  | Dyn_attr of { dialect : string; name : string; params : t list }
      (** An attribute defined at runtime by an IRDL [Attribute]
          definition. *)

(** {2 Type constructors} *)

val i1 : ty
val i8 : ty
val i16 : ty
val i32 : ty
val i64 : ty
val f16 : ty
val f32 : ty
val f64 : ty
val bf16 : ty
val index : ty
val none : ty

val integer : ?signedness:signedness -> int -> ty
(** An integer type of the given positive bit width. *)

val dynamic : dialect:string -> name:string -> t list -> ty
val function_ty : inputs:ty list -> outputs:ty list -> ty
val tuple : ty list -> ty

(** {2 Attribute constructors} *)

val unit : t
val bool : bool -> t
val int : ?ty:ty -> int64 -> t
val int_of : ty:ty -> int -> t
val float : ?ty:ty -> float -> t
val string : string -> t
val array : t list -> t

val dict : (string * t) list -> t
(** Entries are canonicalized to sorted key order, making dictionary
    equality key-order-insensitive.
    @raise Irdl_support.Diag.Error_exn on duplicate keys. *)

val duplicate_key : (string * 'a) list -> string option
(** A key that occurs more than once among the entries, if any: for an
    op's attributes and a dictionary's entries before {!dict}. *)

val duplicate_key_message : string -> string
(** The error {!dict} raises for a repeated key. *)

val typ : ty -> t
val enum : dialect:string -> enum:string -> string -> t
val symbol : string -> t
val location : file:string -> line:int -> col:int -> t
val type_id : string -> t
val opaque : tag:string -> string -> t
val dyn_attr : dialect:string -> name:string -> t list -> t

val bool_int : bool -> t
(** The [i1] constant 1/0 used by conditional branches. *)

(** {2 Uniquing} *)

val intern : t -> t
(** The canonical node for a (possibly hand-assembled) attribute:
    structurally equal inputs return the same physical node, recursively
    canonicalizing sub-terms (dictionary key order included). Idempotent,
    and the identity on nodes produced by the constructors above.
    @raise Irdl_support.Diag.Error_exn on dictionaries with duplicate
    keys. *)

val intern_ty : ty -> ty

val id : t -> int
(** The unique integer id of the canonical node (interning first if
    needed): [id a = id b] iff [equal a b], evaluated on one domain. Ids
    are dense, stable for the process lifetime and domain-local — the
    uniquer tables are per-domain shards, so ids must never be compared
    across domains (per-domain caches key on them instead). Attribute and
    type ids are separate spaces. *)

val id_ty : ty -> int

val uniquer_stats : unit -> Intern.stats * Intern.stats
(** The calling domain's uniquer shard counters as [(types, attributes)];
    reported via [Context.stats ~scope:`Per_domain]. Identical to the
    historical process-wide numbers in single-domain programs. *)

val uniquer_stats_merged : unit -> Intern.stats * Intern.stats
(** Counters summed over every domain's shard. [nodes] counts canonical
    copies per shard, not globally distinct structures. *)

(** {2 Equality and hashing} *)

val equal_ty : ty -> ty -> bool

val equal : t -> t -> bool
(** Pointer comparison when both operands are interned (the invariant for
    every value built through this module), falling back to a structural
    walk — with float payloads comparing bitwise so equality is reflexive —
    for values that bypassed the uniquer. *)

val hash : t -> int
(** Structural; agrees with {!equal} ([equal a b] implies
    [hash a = hash b]). *)

val hash_ty : ty -> int

(** {2 Rendering}

    One renderer appends the textual form to a [Buffer.t]; the [Format]
    printers and the [to_string]s are wrappers over it, so diagnostics and
    printed IR read the same. The text parses back to an equal value:
    strings are quoted by {!add_quoted}, and a non-finite float prints as
    the hex bit pattern of the stored double ([0x7FF0000000000000 : f64]),
    which the parser reads back as those bits before a float type. *)

val add_ty : Buffer.t -> ty -> unit
val add : Buffer.t -> t -> unit

val add_quoted : Buffer.t -> string -> unit
(** A double-quoted string literal, the exact inverse of the lexer's
    [Sbuf.string_literal]. A double quote, a backslash, a newline and a tab
    are written as backslash escapes; other bytes below 0x20 and 0x7F as a
    backslash and two uppercase hex digits (ESC is [\1B]); printable ASCII
    and bytes from 0x80 up verbatim. A string with nothing to escape is
    appended in one copy. *)

val add_int : Buffer.t -> int -> unit
(** Decimal digits, appended without an intermediate string for
    non-negative values. *)

val pp_float_kind : Format.formatter -> float_kind -> unit
val pp_ty : Format.formatter -> ty -> unit
val pp : Format.formatter -> t -> unit
val ty_to_string : ty -> string
val to_string : t -> string

(** {2 Classifiers and helpers} *)

val is_float_ty : ty -> bool
val is_integer_ty : ty -> bool
val dict_find : string -> t -> t option
