open Sasos_os

type variant = Plb | Page_group | Pk | Conv_asid | Conv_flush

let all =
  [
    ("plb", Plb);
    ("page-group", Page_group);
    ("pk", Pk);
    ("conv-asid", Conv_asid);
    ("conv-flush", Conv_flush);
  ]

(* The stable names joined for CLI/doc use — generated so a new machine
   cannot drift out of --help texts (a test greps README for each name). *)
let names_doc = String.concat ", " (List.map fst all)

let of_string s =
  List.assoc_opt (String.lowercase_ascii s) all

let to_string = function
  | Plb -> "plb"
  | Page_group -> "page-group"
  | Pk -> "pk"
  | Conv_asid -> "conv-asid"
  | Conv_flush -> "conv-flush"

module Smp = Sasos_smp.Smp

(* Functor applications at toplevel: one smp-lifted module per machine
   model, shared by every construction path. *)
module Smp_plb = Smp.Make (Plb_machine)
module Smp_pg = Smp.Make (Pg_machine)
module Smp_pk = Smp.Make (Pk_machine)
module Smp_conv_asid = Smp.Make (Conv_machine.Asid)
module Smp_conv_flush = Smp.Make (Conv_machine.Flush)

let make_smp variant ~cores ~purge ?ipi_budget ?ipi_cost config =
  match variant with
  | Plb ->
      System_intf.Packed
        ((module Smp_plb : System_intf.SYSTEM with type t = Smp_plb.t),
         Smp_plb.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)
  | Page_group ->
      System_intf.Packed
        ((module Smp_pg : System_intf.SYSTEM with type t = Smp_pg.t),
         Smp_pg.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)
  | Pk ->
      System_intf.Packed
        ((module Smp_pk : System_intf.SYSTEM with type t = Smp_pk.t),
         Smp_pk.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)
  | Conv_asid ->
      System_intf.Packed
        ((module Smp_conv_asid : System_intf.SYSTEM
            with type t = Smp_conv_asid.t),
         Smp_conv_asid.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)
  | Conv_flush ->
      System_intf.Packed
        ((module Smp_conv_flush : System_intf.SYSTEM
            with type t = Smp_conv_flush.t),
         Smp_conv_flush.create_with ~cores ~purge ?ipi_budget ?ipi_cost config)

let make_single variant config =
  match variant with
  | Plb ->
      System_intf.Packed
        ((module Plb_machine : System_intf.SYSTEM with type t = Plb_machine.t),
         Plb_machine.create config)
  | Page_group ->
      System_intf.Packed
        ((module Pg_machine : System_intf.SYSTEM with type t = Pg_machine.t),
         Pg_machine.create config)
  | Pk ->
      System_intf.Packed
        ((module Pk_machine : System_intf.SYSTEM with type t = Pk_machine.t),
         Pk_machine.create config)
  | Conv_asid ->
      System_intf.Packed
        ((module Conv_machine.Asid : System_intf.SYSTEM
            with type t = Conv_machine.Asid.t),
         Conv_machine.Asid.create config)
  | Conv_flush ->
      System_intf.Packed
        ((module Conv_machine.Flush : System_intf.SYSTEM
            with type t = Conv_machine.Flush.t),
         Conv_machine.Flush.create config)

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

let make_all config = List.map (fun (_, v) -> make v config) all
let sas_pair config = (make Plb config, make Page_group config)
