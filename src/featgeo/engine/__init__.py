"""Role-typed generative-engine access: client, cache, cost ledger, transports."""
