open Sasos_addr

(* Entries live in a Packed_cache: k1 is the protection page number, k2
   packs (pd lsl 6) lor shift — shifts are validated to [4, 62] so six
   bits always hold them, and the Okamoto context-tag PDs (up to ~31
   bits) keep their full width in the upper lanes. The hash is a
   multiplicative mix of all three key fields. *)

let hash_of ~pd ~shift ~pn =
  (pn * 0x9e3779b1) lxor (pd * 0x85ebca6b) lxor (shift * 0xc2b2ae35)

let pack_k2 ~pd ~shift = (pd lsl 6) lor shift
let k2_shift k2 = k2 land 63
let k2_pd k2 = k2 lsr 6

type t = {
  shifts : int list; (* ascending *)
  cache : Packed_cache.t;
  probe : Probe.t;
}

let create ?policy ?seed ?(probe = Probe.null) ?(shifts = [ 12 ])
    ~sets ~ways () =
  if shifts = [] then invalid_arg "Plb.create: no protection page sizes";
  List.iter
    (fun s -> if s < 4 || s > 62 then invalid_arg "Plb.create: bad shift")
    shifts;
  {
    shifts = List.sort_uniq compare shifts;
    cache = Packed_cache.create ?policy ?seed ~sets ~ways ();
    probe;
  }

let note_occupancy t =
  Probe.set_occupancy t.probe Probe.Plb (Packed_cache.length t.cache)

let shifts t = t.shifts
let capacity t = Packed_cache.capacity t.cache
let length t = Packed_cache.length t.cache

(* A hardware PLB probes all grains in parallel and reports one hit or miss
   per access; we emulate that by peeking every grain and charging the
   statistics once. The finest resident grain provides the rights.
   Top-level recursion, not a local [let rec]: a closure per lookup would
   break the zero-allocation fast path. *)
let rec finest_resident cache pd va = function
  | [] -> -1
  | shift :: rest ->
      let pn = va lsr shift in
      if
        Packed_cache.peek cache
          ~hash:(hash_of ~pd ~shift ~pn)
          ~k1:pn
          ~k2:(pack_k2 ~pd ~shift)
        <> Packed_cache.absent
      then shift
      else finest_resident cache pd va rest

let lookup_bits t ~pd ~va =
  let pd = Pd.to_int pd in
  match finest_resident t.cache pd va t.shifts with
  | -1 ->
      let shift = List.hd t.shifts in
      let pn = va lsr shift in
      ignore
        (Packed_cache.find t.cache
           ~hash:(hash_of ~pd ~shift ~pn)
           ~k1:pn
           ~k2:(pack_k2 ~pd ~shift));
      Packed_cache.absent
  | shift ->
      (* count the hit and refresh recency via a real probe *)
      let pn = va lsr shift in
      Packed_cache.find t.cache
        ~hash:(hash_of ~pd ~shift ~pn)
        ~k1:pn
        ~k2:(pack_k2 ~pd ~shift)

let lookup t ~pd ~va =
  let bits = lookup_bits t ~pd ~va in
  if bits = Packed_cache.absent then None else Some (Rights.of_int bits)

let install t ~pd ~va ~shift rights =
  if not (List.mem shift t.shifts) then
    invalid_arg "Plb.install: unconfigured protection page size";
  let pd = Pd.to_int pd in
  let pn = va lsr shift in
  Packed_cache.insert t.cache
    ~hash:(hash_of ~pd ~shift ~pn)
    ~k1:pn
    ~k2:(pack_k2 ~pd ~shift)
    (Rights.to_int rights);
  Probe.note_fill t.probe Probe.Plb;
  note_occupancy t

let rec set_first_resident cache pd va rbits = function
  | [] -> false
  | shift :: rest ->
      let pn = va lsr shift in
      if
        Packed_cache.set cache
          ~hash:(hash_of ~pd ~shift ~pn)
          ~k1:pn
          ~k2:(pack_k2 ~pd ~shift)
          rbits
      then true
      else set_first_resident cache pd va rbits rest

let update_rights t ~pd ~va rights =
  set_first_resident t.cache (Pd.to_int pd) va (Rights.to_int rights) t.shifts

(* Top-level recursion like [finest_resident]: this runs on the PLB
   refill path, where a per-call closure would allocate. *)
let rec remove_all_grains cache pd va shifts any =
  match shifts with
  | [] -> any
  | shift :: rest ->
      let pn = va lsr shift in
      let removed =
        Packed_cache.remove cache
          ~hash:(hash_of ~pd ~shift ~pn)
          ~k1:pn
          ~k2:(pack_k2 ~pd ~shift)
      in
      remove_all_grains cache pd va rest (removed || any)

let invalidate t ~pd ~va =
  let any = remove_all_grains t.cache (Pd.to_int pd) va t.shifts false in
  if any then begin
    Probe.note_purged t.probe Probe.Plb 1;
    note_occupancy t
  end;
  any

let purge_matching t p =
  let inspected, removed =
    Packed_cache.purge t.cache (fun pn k2 r ->
        p (Pd.of_int (k2_pd k2)) (pn lsl k2_shift k2) (Rights.of_int r))
  in
  Probe.note_purged t.probe Probe.Plb removed;
  note_occupancy t;
  (inspected, removed)

let update_matching t f =
  let inspected = ref 0 and updated = ref 0 in
  let pending = ref [] in
  Packed_cache.iter
    (fun pn k2 rbits ->
      incr inspected;
      let r = Rights.of_int rbits in
      match f (Pd.of_int (k2_pd k2)) (pn lsl k2_shift k2) r with
      | Some r' when not (Rights.equal r r') ->
          pending := (pn, k2, r') :: !pending
      | Some _ | None -> ())
    t.cache;
  List.iter
    (fun (pn, k2, r') ->
      let hash =
        hash_of ~pd:(k2_pd k2) ~shift:(k2_shift k2) ~pn
      in
      if Packed_cache.set t.cache ~hash ~k1:pn ~k2 (Rights.to_int r') then
        incr updated)
    !pending;
  (!inspected, !updated)

let flush t =
  let dropped = Packed_cache.clear t.cache in
  Probe.note_purged t.probe Probe.Plb dropped;
  note_occupancy t;
  dropped

let entries_for_va t va =
  Packed_cache.fold
    (fun pn k2 _ acc -> if pn = va lsr k2_shift k2 then acc + 1 else acc)
    t.cache 0

let iter f t =
  Packed_cache.iter
    (fun pn k2 r ->
      f (Pd.of_int (k2_pd k2)) (pn lsl k2_shift k2) (k2_shift k2)
        (Rights.of_int r))
    t.cache

let hits t = Packed_cache.hits t.cache
let misses t = Packed_cache.misses t.cache
let reset_stats t = Packed_cache.reset_stats t.cache
