(** Hardware-level batch kernel for the protection-check fast path.

    Where {!Engine} compiles OS-level traces, this module compiles a
    stream of raw structure accesses — PLB probes, TLB
    lookup/mark-or-refill, page-group checks — against a concrete rig.
    Compilation precomputes every key hash and set base (eliminating the
    per-access multiplicative hash and [mod sets] division) and packs the
    operands into flat int lanes; {!run} then decodes them in a
    tail-recursive, zero-allocation loop over
    {!Sasos_hw.Packed_cache.packed_state} lanes via the [raw_*]
    operations — the same code the scalar API calls, so hit/miss/eviction
    accounting and Random victim draws are identical by construction
    (and gated by a QCheck lockstep property, test/test_engine.ml).

    bench/hot_path.exe uses this as its [--engine batch] measurement. *)

open Sasos_addr
open Sasos_hw

type op =
  | Plb_find of { pd : int; va : int; shift : int }
      (** counted PLB probe; its result (rights bits or -1) joins the
          accumulator — single-grain PLBs only *)
  | Plb_install of { pd : int; va : int; shift : int; rights : Rights.t }
  | Tlb_access of {
      space : int;
      vpn : int;
      write : bool;
      refill_pfn : int;
      refill_aid : int;
      refill_rights : Rights.t;
    }
      (** lookup; on a hit, mark used/dirty and accumulate the PFN; on a
          miss, install the refill entry (clean, unreferenced) *)
  | Pg_check of { aid : int }  (** accumulates -1 / 0 / 1; AID 0 is free *)
  | Pg_load of { aid : int; write_disabled : bool }

type program

val length : program -> int
(** Decoded slot count. With fusion (the [compile] default) a back-to-back
    [Plb_find; Tlb_access; Pg_check] triple — the per-access protection
    path — compiles into one {e access superop} slot, so this can be
    smaller than the source op count. *)

val compile :
  ?fuse:bool ->
  plb:Plb.t ->
  tlb:Tlb.t ->
  pgc:Page_group_cache.t ->
  op list ->
  program
(** Lower the op stream against the rig. [fuse] (default true) enables the
    access-superop peephole when the PLB and TLB are 4-way; pass [false]
    for slot-per-op programs (the per-op lockstep tests do).
    @raise Invalid_argument — naming the source op index — when an operand
    does not fit its lane (26-bit AIDs, 31-bit PFNs and PDs, non-negative
    addresses), when a PLB shift is not configured, or when a [Plb_find]
    targets a multi-grain PLB (whose scalar lookup is not a single
    probe). *)

val run : ?reps:int -> program -> int
(** Execute the program [reps] times (default 1) and return the
    accumulated sum — the same value the equivalent scalar loop
    accumulates. Allocation-free. *)

val step : program -> int -> int -> int
(** [step prog i acc]: execute just slot [i], for lockstep differential
    tests (compile with [~fuse:false] for slot = source op). *)
