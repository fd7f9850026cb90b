(** Resolved IRDL constraints and their evaluator.

    This is the semantic core of the paper: every constructor of Figure 2 has
    a case here, plus the IRDL-C++ extensions of §5. Constraints uniformly
    range over the attribute domain ({!Irdl_ir.Attr.t}); a constrained *type*
    is checked as [Attr.Type ty].

    Evaluation threads an environment of constraint-variable bindings
    ([ConstraintVars], §4.6): the first successful check against a variable
    binds it, later checks require equality. *)

open Irdl_ir

type int_kind = { ik_width : int; ik_signedness : Attr.signedness }

type t =
  | Any  (** [AnyParam] *)
  | Any_type  (** [!AnyType] *)
  | Any_attr  (** [#AnyAttr] *)
  | Eq of Attr.t
      (** Equality with a concrete type ([!f32]), value ([3 : int32_t],
          ["foo"]) or enum constructor ([signedness.Signed]). *)
  | Base_type of { dialect : string; name : string; params : t list option }
      (** [!complex] ([params = None]) or [!complex<pc1, ...>]. *)
  | Base_attr of { dialect : string; name : string; params : t list option }
  | Int_param of int_kind  (** [int32_t], [uint8_t], ... *)
  | Float_param of Attr.float_kind option  (** [#f32_attr]; [None] = any *)
  | String_param  (** [string] *)
  | Symbol_param  (** [symbol]: a [@name] symbol reference *)
  | Bool_param
  | Location_param
  | Type_id_param
  | Enum_param of { dialect : string; enum : string }
      (** Any constructor of the enum (§4.8). *)
  | Array_any  (** [array] *)
  | Array_of of t  (** [array<pc>] *)
  | Array_exact of t list  (** [[pc1, ..., pcN]] *)
  | Any_of of t list
  | And of t list
  | Not of t
  | Var of var  (** A [ConstraintVars] variable use. *)
  | Native of { name : string; base : t; snippets : string list }
      (** IRDL-C++ [Constraint] definition (§5.1). *)
  | Native_param of { name : string; class_name : string }
      (** IRDL-C++ [TypeOrAttrParam] (§5.2): matches [Attr.Opaque] values
          tagged with [name]. *)
  | Variadic of t  (** Top-level only, in operand/result/region-arg slots. *)
  | Optional of t

and var = { v_name : string; v_constraint : t }

module Env = Map.Make (String)

type env = Attr.t Env.t

let empty_env : env = Env.empty

let int_kind_matches { ik_width; ik_signedness } (ty : Attr.ty) =
  match ty with
  | Attr.Integer { width; signedness } ->
      width = ik_width
      && (signedness = ik_signedness || signedness = Attr.Signless
         || ik_signedness = Attr.Signless)
  | _ -> false

let int_kind_in_range { ik_width; ik_signedness } (v : int64) =
  if ik_width >= 64 then true
  else
    match ik_signedness with
    | Attr.Unsigned ->
        let max = Int64.shift_left 1L ik_width in
        Int64.compare v 0L >= 0 && Int64.compare v max < 0
    | Attr.Signed | Attr.Signless ->
        let max = Int64.shift_left 1L (ik_width - 1) in
        Int64.compare v (Int64.neg max) >= 0 && Int64.compare v max < 0

(** [verify ~native ~env c a] checks attribute [a] against constraint [c],
    returning the (possibly extended) environment on success and a
    human-readable reason on failure. *)
let rec verify ~(native : Native.t) ~(env : env) (c : t) (a : Attr.t) :
    (env, string) result =
  match c with
  | Any -> Ok env
  | Any_type -> (
      match a with
      | Attr.Type _ -> Ok env
      | _ -> Error (Fmt.str "expected a type, got %a" Attr.pp a))
  | Any_attr -> Ok env
  | Eq expected ->
      (* Both sides are interned (the constraint at resolution time, the
         checked attribute at parse/build time), so this is a pointer
         comparison — the hot path of every fixed-type operand check. *)
      if Attr.equal expected a then Ok env
      else Error (Fmt.str "expected %a, got %a" Attr.pp expected Attr.pp a)
  | Base_type { dialect; name; params } -> (
      match a with
      | Attr.Type (Attr.Dynamic d) when d.dialect = dialect && d.name = name
        -> (
          match params with
          | None -> Ok env
          | Some pcs -> verify_params ~native ~env ~what:"type" pcs d.params)
      | _ ->
          Error
            (Fmt.str "expected a !%s.%s type, got %a" dialect name Attr.pp a))
  | Base_attr { dialect; name; params } -> (
      match a with
      | Attr.Dyn_attr d when d.dialect = dialect && d.name = name -> (
          match params with
          | None -> Ok env
          | Some pcs ->
              verify_params ~native ~env ~what:"attribute" pcs d.params)
      | _ ->
          Error
            (Fmt.str "expected a #%s.%s attribute, got %a" dialect name
               Attr.pp a))
  | Int_param kind -> (
      match a with
      | Attr.Int { value; ty } when int_kind_matches kind ty ->
          if int_kind_in_range kind value then Ok env
          else Error (Fmt.str "integer %Ld out of range" value)
      | _ ->
          Error
            (Fmt.str "expected a %d-bit integer parameter, got %a"
               kind.ik_width Attr.pp a))
  | Float_param kind -> (
      match (a, kind) with
      | Attr.Float_attr _, None -> Ok env
      | Attr.Float_attr { ty = Attr.Float k; _ }, Some k' when k = k' -> Ok env
      | _ -> Error (Fmt.str "expected a float parameter, got %a" Attr.pp a))
  | String_param -> (
      match a with
      | Attr.String _ -> Ok env
      | _ -> Error (Fmt.str "expected a string parameter, got %a" Attr.pp a))
  | Symbol_param -> (
      match a with
      | Attr.Symbol _ -> Ok env
      | _ -> Error (Fmt.str "expected a symbol reference, got %a" Attr.pp a))
  | Bool_param -> (
      match a with
      | Attr.Bool _ -> Ok env
      | _ -> Error (Fmt.str "expected a boolean parameter, got %a" Attr.pp a))
  | Location_param -> (
      match a with
      | Attr.Location _ -> Ok env
      | _ -> Error (Fmt.str "expected a location, got %a" Attr.pp a))
  | Type_id_param -> (
      match a with
      | Attr.Type_id _ -> Ok env
      | _ -> Error (Fmt.str "expected a type id, got %a" Attr.pp a))
  | Enum_param { dialect; enum } -> (
      match a with
      | Attr.Enum e when e.dialect = dialect && e.enum = enum -> Ok env
      | _ ->
          Error
            (Fmt.str "expected a constructor of enum %s.%s, got %a" dialect
               enum Attr.pp a))
  | Array_any -> (
      match a with
      | Attr.Array _ -> Ok env
      | _ -> Error (Fmt.str "expected an array parameter, got %a" Attr.pp a))
  | Array_of elem -> (
      match a with
      | Attr.Array xs ->
          List.fold_left
            (fun acc x ->
              match acc with
              | Error _ as e -> e
              | Ok env -> verify ~native ~env elem x)
            (Ok env) xs
      | _ -> Error (Fmt.str "expected an array parameter, got %a" Attr.pp a))
  | Array_exact elems -> (
      match a with
      | Attr.Array xs when List.length xs = List.length elems ->
          List.fold_left2
            (fun acc c x ->
              match acc with
              | Error _ as e -> e
              | Ok env -> verify ~native ~env c x)
            (Ok env) elems xs
      | Attr.Array xs ->
          Error
            (Fmt.str "expected an array of %d elements, got %d"
               (List.length elems) (List.length xs))
      | _ -> Error (Fmt.str "expected an array parameter, got %a" Attr.pp a))
  | Any_of cs ->
      let rec try_all = function
        | [] ->
            Error (Fmt.str "%a satisfies no alternative of AnyOf" Attr.pp a)
        | c :: rest -> (
            match verify ~native ~env c a with
            | Ok env -> Ok env
            | Error _ -> try_all rest)
      in
      try_all cs
  | And cs ->
      List.fold_left
        (fun acc c ->
          match acc with
          | Error _ as e -> e
          | Ok env -> verify ~native ~env c a)
        (Ok env) cs
  | Not c -> (
      (* Bindings made inside a negation are discarded. *)
      match verify ~native ~env c a with
      | Ok _ -> Error (Fmt.str "%a satisfies negated constraint" Attr.pp a)
      | Error _ -> Ok env)
  | Var { v_name; v_constraint } -> (
      match Env.find_opt v_name env with
      | Some bound ->
          (* Interned on both sides: O(1) identity check per re-use of a
             bound [ConstraintVars] variable. *)
          if Attr.equal bound a then Ok env
          else
            Error
              (Fmt.str "constraint variable %s already bound to %a, got %a"
                 v_name Attr.pp bound Attr.pp a)
      | None -> (
          match verify ~native ~env v_constraint a with
          | Ok env -> Ok (Env.add v_name a env)
          | Error reason ->
              Error (Fmt.str "constraint variable %s: %s" v_name reason)))
  | Native { name; base; snippets } -> (
      match verify ~native ~env base a with
      | Error _ as e -> e
      | Ok env ->
          let rec run = function
            | [] -> Ok env
            | snippet :: rest -> (
                match Native.check_param native snippet a with
                | Ok true -> run rest
                | Ok false ->
                    Error
                      (Fmt.str "%a violates native constraint %s (%s)" Attr.pp
                         a name snippet)
                | Error snippet ->
                    Error
                      (Fmt.str
                         "no native hook registered for %S (strict mode)"
                         snippet))
          in
          run snippets)
  | Native_param { name; _ } -> (
      match a with
      | Attr.Opaque { tag; _ } when tag = name -> Ok env
      | _ ->
          Error
            (Fmt.str "expected a native %s parameter, got %a" name Attr.pp a))
  | Variadic c | Optional c ->
      (* Element-wise check; arity is the verifier generator's concern. *)
      verify ~native ~env c a

and verify_params ~native ~env ~what pcs params =
  if List.length pcs <> List.length params then
    Error
      (Fmt.str "%s expects %d parameters, got %d" what (List.length pcs)
         (List.length params))
  else
    List.fold_left2
      (fun acc c param ->
        match acc with
        | Error _ as e -> e
        | Ok env -> verify ~native ~env c param)
      (Ok env) pcs params

(** Check a type against a type constraint. [Attr.typ] is a uniquer hit for
    every type already seen, so the wrapper allocates nothing new. *)
let verify_ty ~native ~env c ty = verify ~native ~env c (Attr.typ ty)

let is_variadic = function Variadic _ | Optional _ -> true | _ -> false
let is_optional = function Optional _ -> true | _ -> false

let rec strip_variadic = function
  | Variadic c | Optional c -> strip_variadic c
  | c -> c

(* ------------------------------------------------------------------ *)
(* Pretty-printing (for diagnostics and introspection tooling)         *)
(* ------------------------------------------------------------------ *)

let pp_int_kind ppf { ik_width; ik_signedness } =
  let prefix =
    match ik_signedness with
    | Attr.Signed -> "int"
    | Attr.Unsigned -> "uint"
    | Attr.Signless -> "int" (* signless literals print as signed kinds *)
  in
  Fmt.pf ppf "%s%d_t" prefix ik_width

let rec pp ppf (c : t) =
  match c with
  | Any -> Fmt.string ppf "AnyParam"
  | Any_type -> Fmt.string ppf "!AnyType"
  | Any_attr -> Fmt.string ppf "#AnyAttr"
  | Eq a -> Attr.pp ppf a
  | Base_type { dialect; name; params = None } ->
      Fmt.pf ppf "!%s.%s" dialect name
  | Base_type { dialect; name; params = Some pcs } ->
      Fmt.pf ppf "!%s.%s<%a>" dialect name Fmt.(list ~sep:(any ", ") pp) pcs
  | Base_attr { dialect; name; params = None } ->
      Fmt.pf ppf "#%s.%s" dialect name
  | Base_attr { dialect; name; params = Some pcs } ->
      Fmt.pf ppf "#%s.%s<%a>" dialect name Fmt.(list ~sep:(any ", ") pp) pcs
  | Int_param k -> pp_int_kind ppf k
  | Float_param None -> Fmt.string ppf "float"
  | Float_param (Some k) -> Fmt.pf ppf "#%a_attr" Attr.pp_float_kind k
  | String_param -> Fmt.string ppf "string"
  | Symbol_param -> Fmt.string ppf "symbol"
  | Bool_param -> Fmt.string ppf "bool"
  | Location_param -> Fmt.string ppf "location"
  | Type_id_param -> Fmt.string ppf "type_id"
  | Enum_param { dialect; enum } -> Fmt.pf ppf "%s.%s" dialect enum
  | Array_any -> Fmt.string ppf "array"
  | Array_of c -> Fmt.pf ppf "array<%a>" pp c
  | Array_exact cs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) cs
  | Any_of cs -> Fmt.pf ppf "AnyOf<%a>" Fmt.(list ~sep:(any ", ") pp) cs
  | And cs -> Fmt.pf ppf "And<%a>" Fmt.(list ~sep:(any ", ") pp) cs
  | Not c -> Fmt.pf ppf "Not<%a>" pp c
  | Var { v_name; _ } -> Fmt.pf ppf "$%s" v_name
  | Native { name; _ } -> Fmt.string ppf name
  | Native_param { name; _ } -> Fmt.string ppf name
  | Variadic c -> Fmt.pf ppf "Variadic<%a>" pp c
  | Optional c -> Fmt.pf ppf "Optional<%a>" pp c

let to_string c = Fmt.str "%a" pp c
