(** Binary serialisation of CDFGs.

    A compact little-endian format for saving minimised graphs to disk and
    for embedding them in tile configurations (see
    {!Mapping.Encode}). Round-trip is exact: node ids, regions, order
    edges and named outputs are all preserved. *)

exception Corrupt of string

val to_string : Graph.t -> string
val of_string : string -> Graph.t
(** @raise Corrupt on malformed input (bad magic, truncation, unknown
    tags). The decoded graph passes [Graph.validate] if the encoded one
    did. *)

val to_file : Graph.t -> string -> unit
val of_file : string -> Graph.t

(** {2 Canonical form and content digest}

    The mapping cache of the serve daemon keys on graph {e content}:
    two graphs that differ only in node ids (insertion order, journal
    history, serialisation round-trips) must produce the same key, and
    any structural difference — a node, an edge, a constant, a region
    size, an output name — must change it. *)

val canonical : Graph.t -> string
(** A canonical byte encoding: nodes are renumbered along a Kahn order
    whose ties are broken by structural cone hashes (not ids), and
    order-edge lists are position-sorted. Equal bytes imply the graphs
    are equal up to id renaming; graphs built in different orders (or
    decoded from {!of_string}, which renumbers) encode identically.
    Pathologically symmetric graphs whose automorphism a one-round cone
    hash cannot certify may canonicalise differently — that direction
    only costs a cache miss, never a wrong hit. Not decodable; use
    {!to_string} for persistence. *)

val digest : Graph.t -> string
(** Hex MD5 of {!canonical} — the content-addressed cache key
    (32 lowercase hex characters). *)

val renumber : Graph.t -> Graph.t
(** A copy of the graph with ids renumbered along the canonical order,
    regions and named outputs sorted by name, and order-edge lists
    inserted in ascending renumbered position. Isomorphic graphs renumber
    to member-for-member equal graphs, so the deterministic mapping
    phases turn them into byte-identical jobs. The serve daemon's
    compiles rely on this. *)

(** {2 Id-stable variants}

    Encoding renumbers nodes topologically, so callers that embed node ids
    next to the graph (the configuration encoder) need the mapping. *)

val to_string_mapped : Graph.t -> string * (Graph.id -> int)
(** The encoded bytes plus the id -> encoded-position mapping. *)

val of_string_mapped : string -> Graph.t * (int -> Graph.id)
(** The decoded graph plus the encoded-position -> new-id mapping. *)
