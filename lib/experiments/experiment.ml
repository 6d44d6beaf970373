open Sasos_hw
open Sasos_os

type t = {
  id : string;
  title : string;
  paper_ref : string;
  description : string;
  run : unit -> string;
}

let run_on variant config workload =
  let sys = Sasos_machine.Sys_select.make variant config in
  workload sys;
  (Metrics.copy (System_ops.metrics sys), sys)

let metrics_of_op sys op =
  let before = Metrics.copy (System_ops.metrics sys) in
  op ();
  Metrics.diff (System_ops.metrics sys) before

let phase name f = Sasos_obs.Obs.with_phase (Sasos_obs.Obs.ambient ()) name f

let per num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let header t =
  Printf.sprintf "=== %s: %s (%s) ===\n%s\n\n" t.id t.title t.paper_ref
    t.description
