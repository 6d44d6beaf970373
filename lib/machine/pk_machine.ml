open Sasos_addr
open Sasos_hw
open Sasos_os
include Machine_common

(* The protection-keys machine: the modern (MPK/PKS) descendant of the
   paper's domain-page model.

   A single-space TLB entry carries a small protection-key index in the
   packed AID lane; the rights the hardware enforces come from the current
   domain's key-rights register ({!Sasos_hw.Key_regs}), not from the entry.
   A domain switch therefore swaps one register — no TLB or cache purge —
   and a rights change on pages sharing a key is a register-lane rewrite.

   The OS side assigns keys to *rights signatures*: the sorted list of
   (domain, rights) pairs a protection unit grants. Units with identical
   signatures share one key (the analogue of the page-group machine's
   signature grouping), so the register file's handful of keys covers many
   pages. Key 0 is reserved as the always-deny trap key.

   When every key is bound to a live signature and a new one appears, the
   configured exhaustion policy decides ({!Sasos_os.Config.pk_policy}):
   [`Recycle] steals a round-robin victim key — purging the TLB entries
   tagged with it on every CPU, shootdown-style — while [`Trap] leaves the
   page on key 0, where each access traps and the kernel mediates it after
   consulting the truth. *)

let trap_key = 0

type key_info = {
  mutable signature : (int * int) list;
      (* sorted (pd, rights bits) pairs: the pattern the key's register
         lanes encode; kept in lockstep with the register file *)
  mutable pages : int;  (* protection units currently bound to the key *)
}

type prot = {
  regs : Key_regs.t;
  keys : key_info array;  (* slot 0 is the trap key, never bound *)
  unit_key : (int, int) Hashtbl.t;  (* protection unit -> key *)
  mutable victim : int;  (* round-robin recycle pointer *)
}

type t = prot base

let name = "pk"
let model = System_intf.Protection_keys

let create (config : Config.t) =
  Machine_common.create config (fun _ ->
      {
        regs = Key_regs.create ~keys:config.Config.pk_keys;
        keys =
          Array.init config.Config.pk_keys (fun _ ->
              { signature = []; pages = 0 });
        unit_key = Hashtbl.create 64;
        victim = 0;
      })

(* The canonical rights signature of a protection unit: every domain with
   non-empty ground-truth rights on it, sorted. *)
let signature_of t u =
  let va = u lsl (geom t).Geometry.prot_shift in
  Os_core.domains_with_rights t.os va
  |> List.map (fun (pd, r) -> (Pd.to_int pd, Rights.to_int r))
  |> List.sort compare

(* Rewrite key [k]'s register lanes from [old_sig] to [new_sig], charging
   one register write per lane that actually changes. *)
let write_regs t k ~old_sig ~new_sig =
  let writes = ref 0 in
  List.iter
    (fun (pd, _) ->
      if not (List.mem_assoc pd new_sig) then begin
        Key_regs.set t.prot.regs ~pd ~key:k Rights.none;
        incr writes
      end)
    old_sig;
  List.iter
    (fun (pd, r) ->
      match List.assoc_opt pd old_sig with
      | Some r' when r' = r -> ()
      | _ ->
          Key_regs.set t.prot.regs ~pd ~key:k (Rights.of_int r);
          incr writes)
    new_sig;
  if !writes > 0 then begin
    let m = metrics t in
    m.Metrics.key_reg_writes <- m.Metrics.key_reg_writes + !writes;
    Os_core.charge t.os ((cost t).Cost_model.key_reg_write * !writes);
    (* every CPU's register file must observe the new lanes *)
    charge_shootdown t.os
  end

(* Shootdown-style purge of every TLB entry tagged with [k]: the whole
   structure is inspected on each CPU. *)
let purge_key t k =
  let victims = ref [] in
  Tlb.iter
    (fun _sp vpn e -> if Tlb.aid_of e = k then victims := vpn :: !victims)
    t.tlb;
  let dropped = ref 0 in
  List.iter
    (fun vpn -> if Tlb.invalidate t.tlb ~space:0 ~vpn then incr dropped)
    !victims;
  charge_sweep t (Tlb.capacity t.tlb) !dropped

(* Rebind unit [u] to [key] (or unbind on [None]), retagging — or dropping,
   when unbinding — its resident TLB entries so the hardware never checks
   an access through a stale key. *)
let set_unit_key t u key =
  let old = Hashtbl.find_opt t.prot.unit_key u in
  if old <> key then begin
    (match old with
    | Some k -> t.prot.keys.(k).pages <- t.prot.keys.(k).pages - 1
    | None -> ());
    (match key with
    | Some k ->
        Hashtbl.replace t.prot.unit_key u k;
        t.prot.keys.(k).pages <- t.prot.keys.(k).pages + 1
    | None -> Hashtbl.remove t.prot.unit_key u);
    let c = cost t in
    List.iter
      (fun vpn ->
        if Tlb.peek t.tlb ~space:0 ~vpn <> Tlb.absent then begin
          (match key with
          | Some k ->
              ignore
                (Tlb.set_protection t.tlb ~space:0 ~vpn ~aid:k
                   ~rights:Rights.rwx)
          | None -> ignore (Tlb.invalidate t.tlb ~space:0 ~vpn));
          Os_core.charge t.os c.Cost_model.table_op
        end)
      (Va.vpns_of_ppn (geom t) u)
  end

(* A key whose register lanes encode [sgn]: an allocated key already
   carrying the signature, else a free key (bound and written), else —
   on exhaustion — a recycled victim or the trap key, per policy. *)
let find_key_for t sgn =
  let n = Array.length t.prot.keys in
  let matching = ref 0 in
  for i = n - 1 downto 1 do
    if t.prot.keys.(i).pages > 0 && t.prot.keys.(i).signature = sgn then matching := i
  done;
  if !matching <> 0 then !matching
  else begin
    let free = ref 0 in
    for i = n - 1 downto 1 do
      if t.prot.keys.(i).pages = 0 then free := i
    done;
    if !free <> 0 then begin
      let k = !free in
      let m = metrics t in
      m.Metrics.key_allocs <- m.Metrics.key_allocs + 1;
      Os_core.charge t.os (cost t).Cost_model.table_op;
      write_regs t k ~old_sig:t.prot.keys.(k).signature ~new_sig:sgn;
      t.prot.keys.(k).signature <- sgn;
      k
    end
    else
      match t.os.Os_core.config.Config.pk_policy with
      | `Trap -> trap_key
      | `Recycle ->
          t.prot.victim <- (if t.prot.victim + 1 >= n then 1 else t.prot.victim + 1);
          let k = t.prot.victim in
          let m = metrics t in
          m.Metrics.key_recycles <- m.Metrics.key_recycles + 1;
          purge_key t k;
          (* the stolen key's pages re-fault and re-key on next touch *)
          Hashtbl.fold
            (fun u' kk acc -> if kk = k then u' :: acc else acc)
            t.prot.unit_key []
          |> List.iter (Hashtbl.remove t.prot.unit_key);
          t.prot.keys.(k).pages <- 0;
          Os_core.charge t.os (cost t).Cost_model.table_op;
          write_regs t k ~old_sig:t.prot.keys.(k).signature ~new_sig:sgn;
          t.prot.keys.(k).signature <- sgn;
          k
  end

(* Give unit [u] a key matching its current truth signature. Returns the
   key, or {!trap_key} when the file is exhausted under [`Trap]. *)
let ensure_key t u =
  let sgn = signature_of t u in
  if sgn = [] then begin
    set_unit_key t u None;
    trap_key
  end
  else
    match Hashtbl.find_opt t.prot.unit_key u with
    | Some k when t.prot.keys.(k).signature = sgn -> k
    | Some k when t.prot.keys.(k).pages = 1 ->
        (* sole tenant: re-key in place — the MPK cheap path, register
           writes only, resident TLB entries untouched *)
        write_regs t k ~old_sig:t.prot.keys.(k).signature ~new_sig:sgn;
        t.prot.keys.(k).signature <- sgn;
        k
    | _ ->
        let k = find_key_for t sgn in
        if k = trap_key then begin
          set_unit_key t u None;
          trap_key
        end
        else begin
          set_unit_key t u (Some k);
          k
        end

(* Re-derive a bound unit's key from the truth after a protection change.
   Never-touched units stay unbound: they have no hardware state to fix. *)
let resign_unit t u =
  if Hashtbl.mem t.prot.unit_key u then begin
    let sgn = signature_of t u in
    if sgn = [] then set_unit_key t u None else ignore (ensure_key t u)
  end

(* Batched resign: when a change covers *all* pages of a key and moves them
   to one common signature (attach/detach/protect_segment over a uniformly
   keyed segment), the key is rewritten in place — pure register writes,
   no TLB traffic. Everything else falls back to per-unit resigning. *)
let resign_units t units =
  let units = List.sort_uniq compare units in
  let by_key = Hashtbl.create 8 in
  List.iter
    (fun u ->
      match Hashtbl.find_opt t.prot.unit_key u with
      | Some k ->
          Hashtbl.replace by_key k
            (u :: Option.value (Hashtbl.find_opt by_key k) ~default:[])
      | None -> ())
    units;
  let handled = Hashtbl.create 8 in
  Hashtbl.fold (fun k us acc -> (k, us) :: acc) by_key []
  |> List.sort compare
  |> List.iter (fun (k, us) ->
         if List.length us = t.prot.keys.(k).pages then
           match List.map (signature_of t) us with
           | s :: rest when s <> [] && List.for_all (( = ) s) rest ->
               if t.prot.keys.(k).signature <> s then begin
                 write_regs t k ~old_sig:t.prot.keys.(k).signature ~new_sig:s;
                 t.prot.keys.(k).signature <- s
               end;
               List.iter (fun u -> Hashtbl.replace handled u ()) us
           | _ -> ());
  List.iter (fun u -> if not (Hashtbl.mem handled u) then resign_unit t u) units

let units_of_segment t seg =
  let g = geom t in
  Segment.vpns seg
  |> List.map (fun vpn -> Os_core.prot_unit t.os (Va.va_of_vpn g vpn))
  |> List.sort_uniq compare

(* The headline operation: a domain switch swaps which key-rights register
   is current — one register write, nothing purged (§4.1.4 answered). *)
let switch_domain t pd =
  let m = metrics t in
  let c = cost t in
  m.Metrics.domain_switches <- m.Metrics.domain_switches + 1;
  m.Metrics.key_reg_writes <- m.Metrics.key_reg_writes + 1;
  Os_core.charge t.os (c.Cost_model.domain_switch + c.Cost_model.key_reg_write);
  t.os.Os_core.current <- pd

let destroy_domain t pd =
  Os_core.kernel_entry t.os;
  Os_core.destroy_domain t.os pd;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  (* every key signature naming the dead domain must shed it *)
  let affected =
    Hashtbl.fold
      (fun u k acc ->
        if List.mem_assoc (Pd.to_int pd) t.prot.keys.(k).signature then u :: acc
        else acc)
      t.prot.unit_key []
  in
  resign_units t affected;
  Key_regs.drop_domain t.prot.regs ~pd:(Pd.to_int pd)

let attach t pd seg rights =
  let m = metrics t in
  m.Metrics.attaches <- m.Metrics.attaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_attachment t.os pd seg rights;
  (* one shared table: a single segment-granular write (§3.1) *)
  Os_core.charge t.os (cost t).Cost_model.table_op;
  resign_units t (units_of_segment t seg)

let detach t pd seg =
  let m = metrics t in
  m.Metrics.detaches <- m.Metrics.detaches + 1;
  Os_core.kernel_entry t.os;
  Os_core.remove_attachment t.os pd seg;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  resign_units t (units_of_segment t seg)

let grant t pd va rights =
  let m = metrics t in
  m.Metrics.grants <- m.Metrics.grants + 1;
  Os_core.kernel_entry t.os;
  Os_core.set_override t.os pd va rights;
  Os_core.charge t.os (cost t).Cost_model.table_op;
  resign_units t [ Os_core.prot_unit t.os va ]

let protect_segment t pd seg rights =
  let m = metrics t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  ignore (Os_core.protect_segment t.os pd seg rights);
  Os_core.charge t.os (cost t).Cost_model.table_op;
  resign_units t (units_of_segment t seg)

let protect_all t va rights =
  let m = metrics t in
  let c = cost t in
  m.Metrics.global_protects <- m.Metrics.global_protects + 1;
  Os_core.kernel_entry t.os;
  Os_core.protect_all t.os va rights;
  Os_core.charge t.os
    (c.Cost_model.table_op * List.length (Os_core.domain_list t.os));
  resign_units t [ Os_core.prot_unit t.os va ]

let unmap_page t vpn =
  Os_core.kernel_entry t.os;
  let inspected, removed = Tlb.invalidate_vpn_all_spaces t.tlb vpn in
  charge_sweep t inspected removed;
  unmap t vpn

let destroy_segment t seg =
  Machine_common.destroy_segment t seg ~detach:(detach t)
    ~unmap_page:(unmap_page t);
  (* release any keys still held through overrides of unattached domains *)
  List.iter (fun u -> set_unit_key t u None) (units_of_segment t seg)

(* One attempt at the reference; a key fix restarts it. Top-level
   recursion, not a local [let rec]: a closure per call would allocate on
   every hit. *)
let rec attempt t kind va pd vpn u needed fuel =
  let m = t.os.Os_core.metrics in
  let c = t.os.Os_core.cost in
  if fuel = 0 then
    failwith "Pk_machine.access: protection fix did not converge";
  let e = Tlb.lookup t.tlb ~space:0 ~vpn in
  if e <> Tlb.absent then begin
    m.Metrics.tlb_hits <- m.Metrics.tlb_hits + 1;
    let granted =
      Key_regs.get t.prot.regs ~pd:(Pd.to_int pd) ~key:(Tlb.aid_of e)
    in
    if Rights.subset needed granted then begin
      data_path t kind va e ~space:0;
      Access.Ok
    end
    else begin
      (* the key check failed: trap, consult the truth *)
      Os_core.kernel_entry t.os;
      let truth = Os_core.rights t.os pd va in
      if not (Rights.subset needed truth) then protection_fault t
      else begin
        let k = ensure_key t u in
        let e' = Tlb.peek t.tlb ~space:0 ~vpn in
        if e' = Tlb.absent then
          (* the fix recycled this very entry's key: refill *)
          attempt t kind va pd vpn u needed (fuel - 1)
        else begin
          if Tlb.aid_of e' <> k then begin
            ignore
              (Tlb.set_protection t.tlb ~space:0 ~vpn ~aid:k
                 ~rights:Rights.rwx);
            Os_core.charge t.os c.Cost_model.table_op
          end;
          if k = trap_key then begin
            (* exhausted under [`Trap]: the kernel mediates the access
               through the always-deny key; the next access traps again *)
            data_path t kind va (Tlb.peek t.tlb ~space:0 ~vpn) ~space:0;
            Access.Ok
          end
          else attempt t kind va pd vpn u needed (fuel - 1)
        end
      end
    end
  end
  else begin
    m.Metrics.tlb_misses <- m.Metrics.tlb_misses + 1;
    Os_core.kernel_entry t.os;
    let truth = Os_core.rights t.os pd va in
    (* no rights: fault without paging in *)
    if not (Rights.subset needed truth) then protection_fault t
    else begin
      let pfn = ensure_mapped t vpn in
      let k = ensure_key t u in
      (* one shared translation table: a single walk suffices (§3.1) *)
      Os_core.charge t.os c.Cost_model.table_op;
      Tlb.install t.tlb ~space:0 ~vpn
        (Tlb.pack ~pfn ~rights:Rights.rwx ~aid:k ~dirty:false
           ~referenced:false);
      m.Metrics.tlb_refills <- m.Metrics.tlb_refills + 1;
      Os_core.charge t.os c.Cost_model.tlb_refill;
      attempt t kind va pd vpn u needed (fuel - 1)
    end
  end

let access t kind va =
  count_access t kind;
  let vpn = Va.vpn_of_va t.os.Os_core.geom va in
  attempt t kind va t.os.Os_core.current vpn (Os_core.prot_unit t.os va)
    (Access.rights_needed kind) 8

(* Like the page-group machine, a shared page costs one TLB entry no
   matter how many domains reach it — the §3.1 duplication win. *)
let resident_prot_entries_for t va =
  Tlb.entries_for_vpn t.tlb (Va.vpn_of_va (geom t) va)

let hw_over_allows t probes =
  List.exists
    (fun (pd, va) ->
      let vpn = Va.vpn_of_va (geom t) va in
      let e = Tlb.peek t.tlb ~space:0 ~vpn in
      e <> Tlb.absent
      && not
           (Rights.subset
              (Key_regs.get t.prot.regs ~pd:(Pd.to_int pd) ~key:(Tlb.aid_of e))
              (Os_core.rights t.os pd va)))
    probes

(* Introspection for tests and experiments. *)
let key_of_unit t u = Hashtbl.find_opt t.prot.unit_key u
let key_of_va t va = key_of_unit t (Os_core.prot_unit t.os va)

let live_keys t =
  Array.fold_left (fun n ki -> if ki.pages > 0 then n + 1 else n) 0 t.prot.keys

let key_regs t = t.prot.regs
