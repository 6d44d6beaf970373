(** The global translation table of a single address space OS.

    Because virtual-to-physical translations are global (one per page,
    independent of domain), the natural OS structure is a single inverted /
    hashed page table shared by all domains — the organization §3.1
    recommends for software-loaded TLBs. Protection lives elsewhere
    (per-machine protection tables).

    Two storage backends share one interface. The reference backend keeps
    a [Hashtbl] of mutable mapping records; the packed backend
    ([create ~packed:true], the default) stores each entry as one int in flat
    {!Sasos_util.Flat_tab} lanes so lookups never allocate — required for
    tens of millions of pages. On the packed backend {!find} returns a
    {e snapshot}: mutating the returned record does not write back (use
    {!set_dirty} / {!set_referenced}, which work on both backends). *)

open Sasos_addr

type mapping = {
  pfn : int;
  mutable dirty : bool;
  mutable referenced : bool;
}

type t

val create : ?packed:bool -> unit -> t
(** [packed] defaults to [Packed_cache.default_backend () = Packed]. *)

val map : t -> vpn:Va.vpn -> pfn:int -> unit
(** @raise Invalid_argument if the page is already mapped (a SASOS has
    exactly one translation per page — mapping twice would be a homonym). *)

val unmap : t -> vpn:Va.vpn -> mapping
(** @raise Not_found if unmapped. *)

val unmap_bits : t -> vpn:Va.vpn -> int
(** Zero-allocation unmap: drops the entry and returns its packed bits
    (see {!find_bits}), or [-1] when the page was not mapped. *)

val find : t -> vpn:Va.vpn -> mapping option
(** Snapshot on the packed backend; live record on the reference one. *)

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
val iter : (Va.vpn -> mapping -> unit) -> t -> unit
