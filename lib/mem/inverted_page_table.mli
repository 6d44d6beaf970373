(** The global translation table of a single address space OS.

    Because virtual-to-physical translations are global (one per page,
    independent of domain), the natural OS structure is a single inverted /
    hashed page table shared by all domains — the organization §3.1
    recommends for software-loaded TLBs. Protection lives elsewhere
    (per-machine protection tables).

    Each entry is one int in flat {!Sasos_util.Flat_tab} lanes, so
    lookups never allocate — required for tens of millions of pages. The
    table holds no records: a lookup returns the entry's packed bits, and
    {!set_dirty} / {!set_referenced} update them in place. *)

open Sasos_addr

type t

val create : unit -> t
(** An empty table; it grows on demand. *)

val map : t -> vpn:Va.vpn -> pfn:int -> unit
(** @raise Invalid_argument if the page is already mapped (a SASOS has
    exactly one translation per page — mapping twice would be a homonym). *)

val unmap_bits : t -> vpn:Va.vpn -> int
(** Zero-allocation unmap: drops the entry and returns its packed bits
    (see {!find_bits}), or [-1] when the page was not mapped. *)

val find_bits : t -> vpn:Va.vpn -> int
(** Zero-allocation lookup: [-1] if unmapped, else
    [pfn lsl 2 lor (referenced lsl 1) lor dirty] — decode with
    {!bits_pfn} / {!bits_dirty} / {!bits_referenced}. *)

val bits_pfn : int -> int
val bits_dirty : int -> bool
val bits_referenced : int -> bool

val set_dirty : t -> vpn:Va.vpn -> unit
(** Mark the entry dirty; no-op if unmapped. Never allocates. *)

val set_referenced : t -> vpn:Va.vpn -> unit
(** Mark the entry referenced; no-op if unmapped. Never allocates. *)

val is_mapped : t -> vpn:Va.vpn -> bool
val mapped_count : t -> int
