(** Resolved dialects as IR, and back: the layout of a dialect pack.

    A pack holds a module of generic, unregistered [irdl.*] ops per dialect,
    so it is written, read, printed and re-emitted by the module codec like
    any other IR. Each dialect is one [irdl.dialect] op (attributes [name] and
    [enums]) whose one region holds an [irdl.type], [irdl.attribute] or
    [irdl.operation] op per definition, in definition order. A definition's
    location is its op's location; every other field is an op attribute:
    {ul
    {- [irdl.type]/[irdl.attribute]: [name], [summary], [params], [cpp];}
    {- [irdl.operation]: [name], [summary], [vars], [operands], [results],
       [attributes], [regions], [successors] (present, even empty, marks a
       terminator), [format], [cpp].}}
    Absent lists are empty and absent options [None]; [name] is required.
    A slot is [#irdl.slot<"name", constraint, position>], the position
    [#irdl.at<lines, column>] relative to its definition when both are
    known and in one file, else [loc(...)] ([loc("":0:0)] is unknown);
    regions are [#irdl.region<"name", [slots], "terminator"?>] and enums
    [#irdl.enum_def<"name", ["case", ...], loc(...)>]. A
    {!Constraint_expr.t} node is the [#irdl.<ctor>] attribute named after
    its constructor ([#irdl.any_of<#irdl.eq<f32>, #irdl.eq<f64>>]):
    attributes are interned, so a pack stores each distinct node once. *)

open Irdl_support

val lower : Resolve.dialect -> Irdl_ir.Graph.op
(** The dialect's [irdl.dialect] op. *)

val lift :
  ?file:string ->
  engine:Diag.Engine.t ->
  Irdl_ir.Graph.op Seq.t ->
  Resolve.dialect list
(** The dialects the ops hold, each lifted as it is taken. Total: a
    malformed shape (an unexpected op, a missing or ill-typed attribute,
    an unknown constructor) is one diagnostic on [engine], at its op (or
    the start of [file]), that drops its definition, or its dialect for a
    bad [irdl.dialect] op; other top-level ops are one diagnostic. A pack
    has no surface AST: [dl_ast] holds the enums and the op's location. *)
