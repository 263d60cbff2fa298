package client

// ClusterTrace lends the in-package trace generator to the node-booting
// tests, which live in package client_test (fleettest imports client).
var ClusterTrace = clusterTrace
