open Sasos_addr

(* Entry layout (an OCaml int, 63 usable bits):
     bit  0        referenced
     bit  1        dirty
     bits 2..4     rights (Rights.bits = 3)
     bits 5..30    aid (26 bits; page-group number, 0 outside Pg_machine)
     bits 31..61   pfn (31 bits)
   All fields non-negative, so -1 (absent) is never a valid entry. *)

let absent = -1

let referenced_bit = 0b01
let dirty_bit = 0b10
let rights_shift = 2
let rights_mask = 0b111 lsl rights_shift
let aid_shift = 5
let aid_bits = 26
let aid_limit = 1 lsl aid_bits
let aid_mask = (aid_limit - 1) lsl aid_shift
let pfn_shift = aid_shift + aid_bits
let pfn_limit = 1 lsl 31

let pack ~pfn ~rights ~aid ~dirty ~referenced =
  if pfn < 0 || pfn >= pfn_limit then invalid_arg "Tlb.pack: pfn out of range";
  if aid < 0 || aid >= aid_limit then invalid_arg "Tlb.pack: aid out of range";
  (pfn lsl pfn_shift)
  lor (aid lsl aid_shift)
  lor (Rights.to_int rights lsl rights_shift)
  lor (if dirty then dirty_bit else 0)
  lor (if referenced then referenced_bit else 0)

let pfn_of e = e lsr pfn_shift
let rights_of e = Rights.of_int ((e land rights_mask) lsr rights_shift)
let aid_of e = (e land aid_mask) lsr aid_shift
let dirty_of e = e land dirty_bit <> 0
let referenced_of e = e land referenced_bit <> 0

let with_rights e rights =
  (e land lnot rights_mask) lor (Rights.to_int rights lsl rights_shift)

let hash_of ~space ~vpn = (vpn * 0x9e3779b1) lxor (space * 0x85ebca6b)

type t = { cache : Packed_cache.t; probe : Probe.t }

let create ?policy ?seed ?(probe = Probe.null) ~sets ~ways () =
  { cache = Packed_cache.create ?policy ?seed ~sets ~ways (); probe }

let note_occupancy t =
  Probe.set_occupancy t.probe Probe.Tlb (Packed_cache.length t.cache)

let capacity t = Packed_cache.capacity t.cache
let length t = Packed_cache.length t.cache

let lookup t ~space ~vpn =
  Packed_cache.find t.cache ~hash:(hash_of ~space ~vpn) ~k1:space ~k2:vpn

let peek t ~space ~vpn =
  Packed_cache.peek t.cache ~hash:(hash_of ~space ~vpn) ~k1:space ~k2:vpn

let install t ~space ~vpn bits =
  Packed_cache.insert t.cache ~hash:(hash_of ~space ~vpn) ~k1:space ~k2:vpn
    bits;
  Probe.note_fill t.probe Probe.Tlb;
  note_occupancy t

let mark_used t ~space ~vpn ~write =
  let bits = referenced_bit lor if write then dirty_bit else 0 in
  ignore
    (Packed_cache.set_masked t.cache ~hash:(hash_of ~space ~vpn) ~k1:space
       ~k2:vpn ~mask:bits ~bits)

let set_rights t ~space ~vpn rights =
  Packed_cache.set_masked t.cache ~hash:(hash_of ~space ~vpn) ~k1:space
    ~k2:vpn ~mask:rights_mask
    ~bits:(Rights.to_int rights lsl rights_shift)

let set_protection t ~space ~vpn ~aid ~rights =
  if aid < 0 || aid >= aid_limit then
    invalid_arg "Tlb.set_protection: aid out of range";
  Packed_cache.set_masked t.cache ~hash:(hash_of ~space ~vpn) ~k1:space
    ~k2:vpn
    ~mask:(aid_mask lor rights_mask)
    ~bits:((aid lsl aid_shift) lor (Rights.to_int rights lsl rights_shift))

let rewrite t f = Packed_cache.rewrite t.cache f

let invalidate t ~space ~vpn =
  let removed =
    Packed_cache.remove t.cache ~hash:(hash_of ~space ~vpn) ~k1:space ~k2:vpn
  in
  if removed then begin
    Probe.note_purged t.probe Probe.Tlb 1;
    note_occupancy t
  end;
  removed

let purge_counted t p =
  let inspected, removed = Packed_cache.purge t.cache p in
  Probe.note_purged t.probe Probe.Tlb removed;
  note_occupancy t;
  (inspected, removed)

let drop_vpn t vpn =
  let removed = Packed_cache.remove_k2 t.cache vpn in
  Probe.note_purged t.probe Probe.Tlb removed;
  note_occupancy t;
  removed

let invalidate_vpn_all_spaces t vpn =
  let inspected = Packed_cache.length t.cache in
  (inspected, drop_vpn t vpn)

let purge_space t space = purge_counted t (fun espace _vpn _ -> espace = space)

let flush t =
  let dropped = Packed_cache.clear t.cache in
  Probe.note_purged t.probe Probe.Tlb dropped;
  note_occupancy t;
  dropped

let entries_for_vpn t vpn =
  Packed_cache.fold
    (fun _space evpn _ acc -> if evpn = vpn then acc + 1 else acc)
    t.cache 0

let iter f t = Packed_cache.iter f t.cache
let hits t = Packed_cache.hits t.cache
let misses t = Packed_cache.misses t.cache
let reset_stats t = Packed_cache.reset_stats t.cache
