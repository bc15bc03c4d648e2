package agentserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// Client is a thin typed client for the agent service.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the given base URL (no trailing slash).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// Observe posts one day's observations.
func (c *Client) Observe(req *ObserveRequest) (*ObserveResponse, error) {
	var resp ObserveResponse
	if err := c.post("/v1/observe", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Plan fetches the current assignment plan.
func (c *Client) Plan() (*PlanResponse, error) {
	var resp PlanResponse
	if err := c.get("/v1/plan", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches service counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/v1/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("agentserver client: encode: %w", err)
	}
	resp, err := c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("agentserver client: %w", err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func (c *Client) get(path string, out any) error {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("agentserver client: %w", err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			return fmt.Errorf("agentserver client: %s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("agentserver client: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("agentserver client: decode: %w", err)
	}
	return nil
}
