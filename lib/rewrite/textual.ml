(** Textual rewrite patterns: the fully dynamic companion to IRDL.

    Paper §3 envisions registering a dialect from an IRDL file *and*
    defining rewrites without writing or compiling host code ("together
    with the dynamic pattern rewriting support currently in construction in
    MLIR, this provides the components needed to define a simple
    pattern-based compilation flow"). This module provides that last piece:
    a small s-expression pattern syntax parsed at runtime into
    {!Pattern.t} values.

    Syntax:

    {v
    Pattern norm_of_mul {
      Benefit 2
      Match (arith.mulf (cmath.norm $p) (cmath.norm $q))
      Rewrite (cmath.norm (cmath.mul $p $q : $p) : f32)
    }
    v}

    - [(op sub1 sub2 ...)] matches an operation by name whose single result
      feeds the parent; [$x] captures (and, when repeated, constrains
      equality of) an operand value.
    - In the rewrite template, [(op args... : ty)] creates an operation with
      one result of type [ty], where [ty] is either a concrete type (parsed
      with the generic type syntax) or [$x], meaning "the type of capture
      [x]". When the ascription is omitted, the type of the first capture
      mentioned in the subtree is used.

    Several [Pattern] definitions may appear in one source. *)

open Irdl_support
open Irdl_ir

type sexp =
  | S_op of { name : string; args : sexp list; ty : ty_ref option }
  | S_capture of string

and ty_ref = T_concrete of Attr.ty | T_of_capture of string

(* ---------------- parsing ---------------- *)

type stream = { buf : Sbuf.t; ctx : Context.t }

let skip_ws st =
  Sbuf.skip_while st.buf Sbuf.is_space;
  if Sbuf.peek st.buf = '/' && Sbuf.peek2 st.buf = '/' then begin
    Sbuf.skip_while st.buf (fun c -> c <> '\n');
    Sbuf.skip_while st.buf Sbuf.is_space
  end

let fail st fmt =
  Diag.raise_error ~loc:(Loc.point (Sbuf.pos st.buf)) fmt

let ident st =
  let s = Sbuf.take_while st.buf (fun c -> Sbuf.is_ident_char c || c = '.') in
  if s = "" then fail st "expected an identifier";
  s

let expect st c =
  skip_ws st;
  if not (Sbuf.accept st.buf c) then fail st "expected '%c'" c

let parse_ty_ref st : ty_ref =
  skip_ws st;
  match Sbuf.peek st.buf with
  | '$' ->
      Sbuf.advance st.buf;
      T_of_capture (ident st)
  | _ ->
      (* Reuse the generic type grammar by slicing up to a delimiter. *)
      let start = Sbuf.pos st.buf in
      let depth = ref 0 in
      let continue = ref true in
      while !continue && not (Sbuf.eof st.buf) do
        match Sbuf.peek st.buf with
        | '<' | '(' ->
            incr depth;
            Sbuf.advance st.buf
        | '>' ->
            decr depth;
            Sbuf.advance st.buf
        | ')' when !depth > 0 ->
            decr depth;
            Sbuf.advance st.buf
        | ')' -> continue := false
        | c when Sbuf.is_space c && !depth = 0 -> continue := false
        | _ -> Sbuf.advance st.buf
      done;
      let text = Sbuf.slice st.buf start (Sbuf.pos st.buf) in
      (match Parser.parse_type_string st.ctx text with
      | Ok ty -> T_concrete ty
      | Error d -> raise (Diag.Error_exn d))

let rec parse_sexp st : sexp =
  skip_ws st;
  if Sbuf.eof st.buf then fail st "expected '(' or '$'";
  match Sbuf.peek st.buf with
  | '$' ->
      Sbuf.advance st.buf;
      S_capture (ident st)
  | '(' ->
      Sbuf.advance st.buf;
      skip_ws st;
      let name = ident st in
      if not (String.contains name '.') then
        fail st "operation name '%s' must be dialect-qualified" name;
      let args = ref [] in
      let ty = ref None in
      let rec go () =
        skip_ws st;
        if Sbuf.eof st.buf then fail st "unterminated '('";
        match Sbuf.peek st.buf with
        | ')' -> Sbuf.advance st.buf
        | ':' ->
            Sbuf.advance st.buf;
            ty := Some (parse_ty_ref st);
            expect st ')'
        | _ ->
            args := parse_sexp st :: !args;
            go ()
      in
      go ();
      S_op { name; args = List.rev !args; ty = !ty }
  | _ -> fail st "expected '(' or '$'"

(* ---------------- compilation to Pattern ---------------- *)

let rec to_matcher (s : sexp) : Pattern.matcher =
  match s with
  | S_capture x -> Pattern.m_val x
  | S_op { name; args; _ } -> Pattern.m_op name (List.map to_matcher args)

let rec first_capture (s : sexp) : string option =
  match s with
  | S_capture x -> Some x
  | S_op { args; _ } -> List.find_map first_capture args

let rec to_builder (s : sexp) : (Pattern.builder, Diag.t) result =
  match s with
  | S_capture x -> Ok (Pattern.b_cap x)
  | S_op { name; args; ty } -> (
      let rec build_args acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest ->
            Result.bind (to_builder a) (fun b -> build_args (b :: acc) rest)
      in
      Result.bind (build_args [] args) @@ fun args' ->
      match ty with
      | Some (T_concrete ty) ->
          Ok (Pattern.b_op name args' (Pattern.Ty_const ty))
      | Some (T_of_capture x) ->
          Ok (Pattern.b_op name args' (Pattern.Ty_of_capture x))
      | None -> (
          match first_capture s with
          | Some x -> Ok (Pattern.b_op name args' (Pattern.Ty_of_capture x))
          | None ->
              Diag.errorf
                "cannot infer the result type of (%s ...); add ': <type>'"
                name))

(** Captures used in the rewrite template must be bound by the match. *)
let rec captures (s : sexp) : string list =
  match s with
  | S_capture x -> [ x ]
  | S_op { args; _ } -> List.concat_map captures args

let compile_pattern ~name ~benefit ~(match_ : sexp) ~(rewrite : sexp) :
    (Pattern.t, Diag.t) result =
  let bound = captures match_ in
  let unbound =
    List.filter (fun c -> not (List.mem c bound)) (captures rewrite)
  in
  match unbound with
  | c :: _ -> Diag.errorf "pattern %s: capture $%s is not bound by Match" name c
  | [] -> (
      match match_ with
      | S_capture _ ->
          Diag.errorf "pattern %s: Match root must be an operation" name
      | S_op _ ->
          Result.map
            (fun replacement ->
              Pattern.dag ~benefit ~name ~root:(to_matcher match_) ~replacement
                ())
            (to_builder rewrite))

(* ---------------- top-level pattern files ---------------- *)

let kw st expected =
  skip_ws st;
  let got = ident st in
  if got <> expected then fail st "expected '%s', got '%s'" expected got

(** Parse a source containing [Pattern name { Benefit? Match ... Rewrite ... }]
    definitions against [ctx] (used to parse concrete types). *)
let parse_patterns (ctx : Context.t) ?(file = "<pattern>") src :
    (Pattern.t list, Diag.t) result =
  Diag.protect_any @@ fun () ->
  let st = { buf = Sbuf.create ~file src; ctx } in
  let rec go acc =
    skip_ws st;
    if Sbuf.eof st.buf then List.rev acc
    else begin
      kw st "Pattern";
      skip_ws st;
      let name = ident st in
      expect st '{';
      skip_ws st;
      let benefit = ref 1 in
      (let save = Sbuf.mark st.buf in
       let word = Sbuf.take_while st.buf Sbuf.is_ident_char in
       if word = "Benefit" then begin
         skip_ws st;
         let digits = Sbuf.take_while st.buf Sbuf.is_digit in
         if digits = "" then fail st "expected a benefit value";
         match int_of_string_opt digits with
         | Some b -> benefit := b
         | None -> fail st "benefit value '%s' out of range" digits
       end
       else Sbuf.reset st.buf save);
      kw st "Match";
      let match_ = parse_sexp st in
      kw st "Rewrite";
      let rewrite = parse_sexp st in
      expect st '}';
      let p =
        match compile_pattern ~name ~benefit:!benefit ~match_ ~rewrite with
        | Ok p -> p
        | Error d -> raise (Diag.Error_exn d)
      in
      go (p :: acc)
    end
  in
  go []
