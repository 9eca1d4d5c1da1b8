"""The Dagger RPC framework.

Functional reproduction of the paper's software stack (section 4.2): an
IDL with code generator (Listing 1), client-side ``RpcClient`` /
``RpcClientPool`` / ``CompletionQueue``, server-side ``RpcThreadedServer``
with dispatch- and worker-thread models, and the wire message format the
NIC understands.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "errors": ("RpcError", "ConnectionError_", "MethodNotFoundError",
               "SerializationError", "RpcDroppedError"),
    "messages": ("RpcKind", "RpcPacket"),
    "client": ("RpcClient", "RpcClientPool", "RpcCall", "CompletionQueue"),
    "server": ("RpcThreadedServer", "RpcServerThread", "ThreadingModel"),
})
