(** The instrumented pipeline executor. See the interface. *)

open Irdl_support
open Irdl_ir

let src = Logs.Src.create "irdl.pass" ~doc:"Pass manager"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  pm_passes : Pass.t list;
  verify_each : bool;
  verifier : Context.t -> Graph.op -> (unit, Diag.t) result;
  print_before : string list;
  print_after : string list;
  print_before_all : bool;
  print_after_all : bool;
  dump : Context.t -> string -> Graph.op list -> unit;
}

(* Generic form on purpose: snapshots are for debugging pass pipelines, and
   the generic syntax is the one that cannot hide anything. *)
let render_dump ctx header ops =
  Fmt.str "// -----// %s //----- //\n%s" header
    (Printer.ops_to_string ~generic:true ctx ops)

let default_dump ctx header ops = Fmt.epr "%s@." (render_dump ctx header ops)

let create ?(verify_each = false) ?(verifier = Verifier.verify)
    ?(print_ir_before = []) ?(print_ir_after = [])
    ?(print_ir_before_all = false) ?(print_ir_after_all = false)
    ?(dump = default_dump) passes =
  {
    pm_passes = passes;
    verify_each;
    verifier;
    print_before = print_ir_before;
    print_after = print_ir_after;
    print_before_all = print_ir_before_all;
    print_after_all = print_ir_after_all;
    dump;
  }

let passes t = t.pm_passes

type pass_report = {
  pr_pass : string;
  pr_time_s : float;
  pr_stats : Pass.statistics;
}

type report = { rp_passes : pass_report list; rp_total_s : float }

(* Monotonic, not wall-clock: pass timings must not go negative or jump
   when NTP steps the system clock mid-pipeline. *)
let now = Monotonic.now_s

(* A failing pass keeps its own diagnostic (message and location); the
   pass name rides along as a note so tooling scraping messages still sees
   the underlying failure first. *)
let attribute_failure (p : Pass.t) (d : Diag.t) =
  {
    d with
    Diag.notes =
      d.Diag.notes
      @ [ (Loc.unknown, Fmt.str "while running pass '%s'" p.Pass.name) ];
  }

let attribute_verify_failure (p : Pass.t) (d : Diag.t) =
  {
    d with
    Diag.message =
      Fmt.str "IR verification failed after pass '%s': %s" p.Pass.name
        d.Diag.message;
  }

let verify_module t ctx ops =
  List.fold_left
    (fun acc op -> match acc with Error _ -> acc | Ok () -> t.verifier ctx op)
    (Ok ()) ops

let run_pass t ctx ops (p : Pass.t) : (pass_report, Diag.t) result =
  if t.print_before_all || List.mem p.Pass.name t.print_before then
    t.dump ctx (Fmt.str "IR dump before %s" p.Pass.name) ops;
  let t0 = now () in
  let rec go acc = function
    | [] -> Ok acc
    | op :: rest -> (
        match p.Pass.run ctx op with
        | Ok s -> go (Stats.add acc s) rest
        | Error d -> Error (attribute_failure p d))
  in
  match go Stats.empty ops with
  | Error _ as e -> e
  | Ok stats ->
      let dt = now () -. t0 in
      Log.info (fun m ->
          m "pass %s: %a (%.6f s)" p.Pass.name Stats.pp stats dt);
      if t.print_after_all || List.mem p.Pass.name t.print_after then
        t.dump ctx (Fmt.str "IR dump after %s" p.Pass.name) ops;
      let verified =
        if t.verify_each then
          match verify_module t ctx ops with
          | Ok () -> Ok ()
          | Error d -> Error (attribute_verify_failure p d)
        else Ok ()
      in
      Result.map
        (fun () -> { pr_pass = p.Pass.name; pr_time_s = dt; pr_stats = stats })
        verified

let run t ctx ops =
  let t0 = now () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match run_pass t ctx ops p with
        | Ok r -> go (r :: acc) rest
        | Error _ as e -> e)
  in
  Result.map
    (fun reports -> { rp_passes = reports; rp_total_s = now () -. t0 })
    (go [] t.pm_passes)

let merge_reports = function
  | [] -> None
  | r :: rs ->
      let merge a b =
        {
          rp_passes =
            List.map2
              (fun x y ->
                {
                  x with
                  pr_time_s = x.pr_time_s +. y.pr_time_s;
                  pr_stats = Stats.add x.pr_stats y.pr_stats;
                })
              a.rp_passes b.rp_passes;
          rp_total_s = a.rp_total_s +. b.rp_total_s;
        }
      in
      Some (List.fold_left merge r rs)

let pp_report ppf r =
  let width =
    List.fold_left
      (fun w pr -> max w (String.length pr.pr_pass))
      (String.length "pass") r.rp_passes
  in
  Fmt.pf ppf "===%s===@." (String.make 60 '-');
  Fmt.pf ppf "  pass execution timing report@.";
  Fmt.pf ppf "===%s===@." (String.make 60 '-');
  Fmt.pf ppf "  total wall-clock: %.6f s@." r.rp_total_s;
  Fmt.pf ppf "  %10s  %7s  %-*s  %s@." "time (s)" "share" width "pass"
    "statistics";
  List.iter
    (fun pr ->
      let share =
        if r.rp_total_s > 0. then 100. *. pr.pr_time_s /. r.rp_total_s else 0.
      in
      Fmt.pf ppf "  %10.6f  %6.1f%%  %-*s  %a@." pr.pr_time_s share width
        pr.pr_pass Stats.pp pr.pr_stats)
    r.rp_passes

let report_to_json r =
  let pass_json pr =
    Fmt.str {|    { "pass": "%s", "time_s": %.6f, "stats": %s }|} pr.pr_pass
      pr.pr_time_s
      (Stats.to_json pr.pr_stats)
  in
  Fmt.str "{\n  \"total_s\": %.6f,\n  \"passes\": [\n%s\n  ]\n}\n"
    r.rp_total_s
    (String.concat ",\n" (List.map pass_json r.rp_passes))
