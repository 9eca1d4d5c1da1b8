"""The Dagger IDL and code generator (section 4.2, Listing 1).

A Protobuf-inspired interface definition language::

    Message GetRequest {
        int32 timestamp;
        char[32] key;
    }

    Service KeyValueStore {
        rpc get(GetRequest) returns(GetResponse);
    }

``parse_idl`` produces the AST; ``generate_python`` emits a Python module
(message classes with fixed-layout pack/unpack, a client stub per service,
and a servicer base class that registers handlers on an
:class:`~repro.rpc.server.RpcThreadedServer`); ``load_idl`` compiles that
module and returns its namespace, which is how the examples and apps use it.

Per the paper's stated limitation (section 4.5), messages carry only
continuous fixed-size fields — scalars and char arrays — no references or
nested variable-length structures.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ast_nodes": ("FieldDef", "MessageDef", "RpcDef", "ServiceDef", "IdlFile"),
    "lexer": ("Token", "tokenize", "IdlSyntaxError"),
    "parser": ("parse_idl",),
    "codegen": ("generate_python", "load_idl"),
})
