open Sasos_util
open Sasos_addr

type mapping = { pfn : int; mutable dirty : bool; mutable referenced : bool }

(* Packed entry layout (Flat_tab value lane, non-negative):
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

type t =
  | Href of (Va.vpn, mapping) Hashtbl.t
  | Flat of Flat_tab.t

(* The packed table starts at Flat_tab's default capacity and doubles on
   demand: a machine maps what its run touches, often a few pages, and
   nothing reads the table's iteration order back into output. *)
let create ?(packed = Sasos_hw.Packed_cache.(default_backend () = Packed))
    () =
  if packed then Flat (Flat_tab.create ())
  else Href (Hashtbl.create 4096)

let map t ~vpn ~pfn =
  match t with
  | Href h ->
      if Hashtbl.mem h vpn then
        invalid_arg "Inverted_page_table.map: page already mapped";
      Hashtbl.replace h vpn { pfn; dirty = false; referenced = false }
  | Flat f ->
      let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
      if Flat_tab.mem f ~k1 ~k2 then
        invalid_arg "Inverted_page_table.map: page already mapped";
      Flat_tab.replace f ~k1 ~k2 ~v:(pfn lsl 2)

(* Zero-allocation unmap: packed bits of the dropped mapping, or -1 when
   the page was not mapped.  The record-returning [unmap] stays for the
   reference backend and diagnostics; page replacement uses this one. *)
let unmap_bits t ~vpn =
  match t with
  | Href h -> (
      match Hashtbl.find_opt h vpn with
      | None -> -1
      | Some m ->
          Hashtbl.remove h vpn;
          (m.pfn lsl 2)
          lor (if m.referenced then 2 else 0)
          lor (if m.dirty then 1 else 0))
  | Flat f ->
      let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
      let bits = Flat_tab.find f ~k1 ~k2 in
      if bits >= 0 then Flat_tab.remove f ~k1 ~k2;
      bits

let unmap t ~vpn =
  match t with
  | Href h -> (
      match Hashtbl.find_opt h vpn with
      | None -> raise Not_found
      | Some m ->
          Hashtbl.remove h vpn;
          m)
  | Flat f ->
      let k1 = vpn_k1 vpn and k2 = vpn_k2 vpn in
      let bits = Flat_tab.find f ~k1 ~k2 in
      if bits < 0 then raise Not_found;
      Flat_tab.remove f ~k1 ~k2;
      {
        pfn = bits_pfn bits;
        dirty = bits_dirty bits;
        referenced = bits_referenced bits;
      }

let find_bits t ~vpn =
  match t with
  | Href h -> (
      match Hashtbl.find_opt h vpn with
      | None -> -1
      | Some m ->
          (m.pfn lsl 2)
          lor (if m.referenced then 2 else 0)
          lor (if m.dirty then 1 else 0))
  | Flat f -> Flat_tab.find f ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn)

let find t ~vpn =
  match t with
  | Href h -> Hashtbl.find_opt h vpn
  | Flat _ ->
      let bits = find_bits t ~vpn in
      if bits < 0 then None
      else
        Some
          {
            pfn = bits_pfn bits;
            dirty = bits_dirty bits;
            referenced = bits_referenced bits;
          }

let set_dirty t ~vpn =
  match t with
  | Href h -> (
      match Hashtbl.find_opt h vpn with
      | Some m -> m.dirty <- true
      | None -> ())
  | Flat f -> ignore (Flat_tab.or_in f ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn) ~bits:1)

let set_referenced t ~vpn =
  match t with
  | Href h -> (
      match Hashtbl.find_opt h vpn with
      | Some m -> m.referenced <- true
      | None -> ())
  | Flat f -> ignore (Flat_tab.or_in f ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn) ~bits:2)

let is_mapped t ~vpn =
  match t with
  | Href h -> Hashtbl.mem h vpn
  | Flat f -> Flat_tab.mem f ~k1:(vpn_k1 vpn) ~k2:(vpn_k2 vpn)

let mapped_count t =
  match t with Href h -> Hashtbl.length h | Flat f -> Flat_tab.length f

let iter f t =
  match t with
  | Href h -> Hashtbl.iter f h
  | Flat ft ->
      Flat_tab.iter ft (fun k1 k2 bits ->
          f
            ((k2 lsl 30) lor k1)
            {
              pfn = bits_pfn bits;
              dirty = bits_dirty bits;
              referenced = bits_referenced bits;
            })
