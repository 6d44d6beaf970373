(** Runtime selection and packaging of the machine models. *)

open Sasos_os

type variant = Plb | Page_group | Pk | Conv_asid | Conv_flush

val all : (string * variant) list
(** Stable names: ["plb"], ["page-group"], ["pk"], ["conv-asid"],
    ["conv-flush"]. *)

val names_doc : string
(** The stable names of {!all} joined with [", "] — the single source for
    CLI help texts and docs, so a new machine cannot drift out of them. *)

val of_string : string -> variant option
val to_string : variant -> string

val make : variant -> Config.t -> System_intf.packed
(** Instantiate a machine of the given model. When the process-global
    {!Sasos_smp.Smp.cores} is above 1 the machine comes back smp-lifted
    with the process-global purge policy. When the ambient
    {!Sasos_obs.Obs} collector is enabled the machine comes back wrapped
    with {!Obs_instrument}, so every [SYSTEM] operation is attributed;
    when disabled, the plain machine is returned unchanged. *)

val make_smp :
  variant ->
  cores:int ->
  purge:Sasos_smp.Smp.purge ->
  ?ipi_budget:int ->
  ?ipi_cost:int ->
  Config.t ->
  System_intf.packed
(** Instantiate smp-lifted with explicit parameters, ignoring the
    process-global defaults (for experiments that vary cores per row). *)

val make_all : Config.t -> System_intf.packed list
(** One fresh instance of every model, in the order of {!all}. *)

val sas_pair : Config.t -> System_intf.packed * System_intf.packed
(** The paper's two single-address-space contenders: (PLB, page-group). *)
