open Sasos_os

type variant = Plb | Page_group | Pk | Conv_asid | Conv_flush

module Smp = Sasos_smp.Smp

(* The one construction table: names, the machine list and both
   constructors derive from it. *)
let system : variant -> (module System_intf.SYSTEM) = function
  | Plb -> (module Plb_machine)
  | Page_group -> (module Pg_machine)
  | Pk -> (module Pk_machine)
  | Conv_asid -> (module Conv_machine.Asid)
  | Conv_flush -> (module Conv_machine.Flush)

let to_string v =
  let module S = (val system v) in
  S.name

let all =
  List.map
    (fun v -> (to_string v, v))
    [ Plb; Page_group; Pk; Conv_asid; Conv_flush ]

(* The stable names joined for CLI/doc use — generated so a new machine
   cannot drift out of --help texts (a test greps README for each name). *)
let names_doc = String.concat ", " (List.map fst all)

let of_string s =
  List.assoc_opt (String.lowercase_ascii s) all

let make_smp variant ~cores ~purge ?ipi_budget ?ipi_cost config =
  let module S = Smp.Make ((val system variant)) in
  System_intf.Packed
    ((module S), S.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)

let make_single variant config =
  let module S = (val system variant) in
  System_intf.Packed ((module S), S.create config)

(* When --cores N > 1 every machine built through here is smp-lifted
   with the process-global policy; at 1 core the plain machine is
   returned unchanged, bit-identical to a build without the smp layer.
   When a collector is ambient, the machine comes back span-instrumented;
   otherwise it is returned unchanged, so a disabled run pays nothing. *)
let make variant config =
  let packed =
    if Smp.cores () > 1 then
      make_smp variant ~cores:(Smp.cores ()) ~purge:(Smp.purge ()) config
    else make_single variant config
  in
  let obs = Sasos_obs.Obs.ambient () in
  if Sasos_obs.Obs.enabled obs then Obs_instrument.wrap_packed obs packed
  else packed
