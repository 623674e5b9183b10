package core

import (
	"testing"

	"crdbserverless/internal/codec/codectest"
	"crdbserverless/internal/region"
)

func FuzzTenantRecord(f *testing.F) {
	codectest.Fuzz(f, decodeTenant, encodeTenant,
		[][]byte{codectest.WithCount(2), codectest.WithCount(2, 1, 'a', 0)},
		&Tenant{ID: 2, Name: "acme", State: StateActive},
		&Tenant{
			ID:          11,
			Name:        "globex",
			State:       StateSuspended,
			Regions:     []region.Region{"us-east1", "europe-west1"},
			Password:    "pw",
			QuotaVCPUs:  2.5,
			RegionAware: true,
		},
	)
}
