open Sasos_util

(* Entry layout (Flat_tab value lane, non-negative):
     bit 0     dirty
     bit 1     referenced
     bits 2..  pfn
   The vpn is split across the two key lanes: k1 = low 30 bits (always
   non-negative, as Flat_tab requires), k2 = high bits.  This keeps full
   precision for 61-bit virtual addresses / 49-bit vpns. *)

let vpn_k1 vpn = vpn land 0x3FFF_FFFF
let vpn_k2 vpn = vpn lsr 30
let bits_pfn bits = bits lsr 2
let bits_dirty bits = bits land 1 <> 0
let bits_referenced bits = bits land 2 <> 0

type t = Flat_tab.t

(* The table starts at Flat_tab's default capacity and doubles on demand:
   a machine maps what its run touches, often a few pages, and nothing
   reads the table's iteration order back into output. *)
let create () = Flat_tab.create ()

let map t ~vpn ~pfn =
  let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
  if Flat_tab.mem t ~k1 ~k2 then
    invalid_arg "Inverted_page_table.map: page already mapped";
  Flat_tab.replace t ~k1 ~k2 ~v:(pfn lsl 2)

let unmap_bits t ~vpn =
  let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
  let bits = Flat_tab.find t ~k1 ~k2 in
  if bits >= 0 then Flat_tab.remove t ~k1 ~k2;
  bits

let find_bits t ~vpn = Flat_tab.find t ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn)

let set_dirty t ~vpn =
  ignore (Flat_tab.or_in t ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn) ~bits:1)

let set_referenced t ~vpn =
  ignore (Flat_tab.or_in t ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn) ~bits:2)

let is_mapped t ~vpn = Flat_tab.mem t ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn)
let mapped_count = Flat_tab.length
