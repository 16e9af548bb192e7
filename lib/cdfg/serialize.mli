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

    A name for graph {e content}: two graphs that differ only in node
    ids (insertion order, journal history, serialisation round-trips)
    get the same digest, and any structural difference — a node, an
    edge, a constant, a region size, an output name — changes it. The
    serve daemon reports the raw graph's digest with every answer, and
    the golden suite pins the digests of the corpus graphs. Mapping
    reads node ids, so isomorphic graphs with one digest may still map
    to different jobs. *)

val canonical : Graph.t -> string
(** A canonical byte encoding: nodes are renumbered along a Kahn order
    whose ties are broken by structural cone hashes (not ids), and
    order-edge lists are position-sorted. Equal bytes imply the graphs
    are equal up to id renaming; graphs built in different orders (or
    decoded from {!of_string}, which renumbers) encode identically.
    Pathologically symmetric graphs whose automorphism a one-round cone
    hash cannot certify may canonicalise differently: two digests for
    one graph, never one digest for two. Not decodable; use
    {!to_string} for persistence. *)

val digest : Graph.t -> string
(** Hex MD5 of {!canonical} (32 lowercase hex characters). *)

(** {2 Id-stable variants}

    Encoding renumbers nodes topologically, so callers that embed node ids
    next to the graph (the configuration encoder) need the mapping. *)

val to_string_mapped : Graph.t -> string * (Graph.id -> int)
(** The encoded bytes plus the id -> encoded-position mapping. *)

val of_string_mapped : string -> Graph.t * (int -> Graph.id)
(** The decoded graph plus the encoded-position -> new-id mapping. *)
